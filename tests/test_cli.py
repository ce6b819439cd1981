import collections
import enum
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import ostrocube
from helpers import simpson_kernel_weighted
from ostrocube.cli import UsageError, _render_json, parse_args, run, run_main

DATA = Path(__file__).parent / "data"


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_main(argv)
    return code, buf.getvalue()


def _capture_json(argv):
    code, text = _capture(argv)
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parse_args_enclose_example():
    inv = parse_args(
        ["enclose", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
         "--subdivide", "4", "4", "--bounds", "1", "5.43657", "--json"]
    )
    assert inv.subcommand == "enclose"
    assert inv.output_mode == "json"
    assert inv.options["rect"] == [0.0, 1.0, 0.0, 1.0]
    assert inv.options["subdivide"] == [4, 4]
    assert inv.options["bounds"] == [1.0, 5.43657]


def test_parse_args_verify_example():
    inv = parse_args(
        ["verify", "--trials", "1000", "--seed", "42",
         "--rules", "t3,t4,t5,corrected"]
    )
    assert inv.subcommand == "verify"
    assert inv.options["trials"] == 1000
    assert inv.options["seed"] == 42
    assert inv.options["rules"] == ["t3", "t4", "t5", "corrected"]
    assert inv.output_mode == "text"


def test_parse_args_accepts_negative_numbers_in_exponent_form():
    inv = parse_args(
        ["enclose", "--f", "t*s", "--rect", "-1e-3", "1", "0", "1",
         "--bounds", "-1.6721630822205803e-05", "2.0"]
    )
    assert inv.options["rect"] == [-1e-3, 1.0, 0.0, 1.0]
    assert inv.options["bounds"] == [-1.6721630822205803e-05, 2.0]
    code, doc = _capture_json(
        ["enclose", "--f", "t*s", "--rect", "-1e-3", "1", "0", "1",
         "--bounds", "-1.6721630822205803e-05", "2.0", "--json"]
    )
    assert code == 0
    assert doc["results"]["enclosure"]["lo"] <= doc["results"]["enclosure"]["hi"]
    inv = parse_args(["compare", "--f", "t*s", "--rect", "-2E+0", "-1.5e-1", "0", "1",
                      "--point", "-1e0", "0.5", "--bounds", "-.5e1", "-1e-300"])
    assert inv.options["rect"][:2] == [-2.0, -0.15]
    assert inv.options["point"] == [-1.0, 0.5]
    assert inv.options["bounds"] == [-5.0, -1e-300]


def test_parse_args_calls_share_no_state():
    first = parse_args(["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1"])
    first.options["bounds"] = [9.0, 9.0]
    first.options["subdivide"].append(7)
    first.options["rect"][0] = -5.0
    other = parse_args(["verify", "--trials", "3"])
    assert "bounds" not in other.options and "f" not in other.options
    compare = parse_args(["compare", "--f", "t", "--rect", "0", "2", "0", "1"])
    assert compare.options["bounds"] == "auto"
    assert "subdivide" not in compare.options
    again = parse_args(["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1"])
    assert again.options["bounds"] == "auto"
    assert again.options["subdivide"] == [1, 1]
    assert again.options["rect"] == [0.0, 1.0, 0.0, 1.0]
    assert again.options["point"] is None
    assert again.options is not first.options


def test_parse_args_rejects_inverted_rect():
    with pytest.raises(UsageError):
        parse_args(["enclose", "--f", "t*s", "--rect", "1", "0", "0", "1"])


def test_parse_args_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_args(["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1",
                    "--frobnicate"])


def test_parse_args_rejects_unknown_rule():
    with pytest.raises(UsageError) as err:
        parse_args(["verify", "--rules", "t9"])
    assert "t9" in str(err.value)


def test_parse_args_rejects_bad_expression():
    with pytest.raises(UsageError):
        parse_args(["identity", "--f", "t++s", "--rect", "0", "1", "0", "1"])


def test_run_main_parses_a_fresh_expression_once(monkeypatch):
    # --f is validated through the cached function that the run then uses
    calls = []
    real = ostrocube.cli.parse_expression
    monkeypatch.setattr(ostrocube.cli, "parse_expression",
                        lambda text: calls.append(text) or real(text))
    text = "sin(t*s) + 0.4375*t^2"  # no other test runs this text
    with redirect_stdout(io.StringIO()):
        assert run_main(["identity", "--f", text, "--rect", "0", "1", "0", "1",
                         "--point", "0.3", "0.6", "--json"]) == 0
    assert calls == [text]


def test_parse_args_rejects_point_outside_rect():
    with pytest.raises(UsageError):
        parse_args(["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
                    "--point", "2", "0.5"])


def test_parse_args_rejects_point_with_subdivision():
    with pytest.raises(UsageError):
        parse_args(["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1",
                    "--subdivide", "2", "2", "--point", "0.5", "0.5"])


def test_parse_args_rejects_bad_lambda_and_bounds():
    with pytest.raises(UsageError):
        parse_args(["verify", "--lambda", "1.5"])
    with pytest.raises(UsageError):
        parse_args(["compare", "--f", "t*s", "--rect", "0", "1", "0", "1",
                    "--bounds", "3", "1"])


_UNIT = ["--rect", "0", "1", "0", "1"]


@pytest.mark.parametrize("argv", [
    # a NaN tolerance failed the identity with exit 0, an infinite one
    # passed any integrand
    ["identity", "--f", "t*s", *_UNIT, "--tol", "nan"],
    ["identity", "--f", "t*s", *_UNIT, "--tol", "inf"],
    ["identity", "--f", "t*s", *_UNIT, "--tol", "0"],
    # an infinite slack held t5 with lhs 0.1875 against width 0; a negative
    # one flagged every rule
    ["compare", "--f", "1", *_UNIT, "--bounds", "0", "0", "--tol", "inf"],
    ["compare", "--f", "t*s", *_UNIT, "--bounds", "1", "1", "--tol", "-1"],
    ["compare", "--f", "t*s", *_UNIT, "--bounds", "1", "1", "--tol", "nan"],
])
def test_tol_out_of_range_is_a_usage_error(argv):
    code, out = _capture(argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    # a NaN or infinite --rect or --bounds failed in the engine with exit 1
    ["enclose", "--f", "t", "--rect", "nan", "1", "0", "1", "--bounds", "0", "1"],
    ["enclose", "--f", "t", "--rect", "0", "inf", "0", "1", "--bounds", "0", "1"],
    ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1e400"],
    ["enclose", "--f", "t", *_UNIT, "--bounds", "0", "inf"],
    ["compare", "--f", "t*s", *_UNIT, "--bounds", "nan", "1"],
    # argparse read -inf and -nan as options: "expected at least one argument"
    ["enclose", "--f", "t", *_UNIT, "--bounds", "-inf", "inf"],
    ["compare", "--f", "t*s", *_UNIT, "--bounds", "-nan", "1"],
    ["enclose", "--f", "t", "--rect", "-Infinity", "1", "0", "1", "--bounds", "0", "1"],
    # a NaN --point was reported as lying outside --rect
    ["identity", "--f", "t*s", *_UNIT, "--point", "nan", "0.5"],
    ["compare", "--f", "t*s", *_UNIT, "--point", "0.5", "-inf", "--bounds", "1", "1"],
])
def test_non_finite_numbers_are_usage_errors(argv):
    with pytest.raises(UsageError, match=r"^--(rect|bounds|point) must be finite, got "):
        parse_args(argv)
    assert _capture(argv) == (2, "")


@pytest.mark.parametrize("m,n", [(30000, 30000), (1024, 1025), (1, 1 << 20), (4097, 1)])
def test_subdivide_above_the_cell_caps_is_a_usage_error(m, n):
    # 30000 x 30000 cells ran out of memory, and 1 x 2^20 took 6.6 GB,
    # instead of failing fast
    argv = ["enclose", "--f", "t*s", *_UNIT, "--bounds", "1", "1", "--subdivide"]
    with pytest.raises(UsageError, match="at most 4096 cells per axis and 1048576 in all"):
        parse_args([*argv, str(m), str(n)])


@pytest.mark.parametrize("m,n", [(1024, 1024), (4096, 256), (1, 4096)])
def test_subdivide_at_the_cell_caps_is_accepted(m, n):
    argv = ["enclose", "--f", "t*s", *_UNIT, "--bounds", "1", "1", "--subdivide"]
    assert parse_args([*argv, str(m), str(n)]).options["subdivide"] == [m, n]


def test_compare_accepts_zero_tol():
    inv = parse_args(["compare", "--f", "t*s", *_UNIT, "--bounds", "1", "1", "--tol", "0"])
    assert inv.options["tol"] == 0.0


def test_usage_error_exit_code():
    code, _ = _capture(["enclose", "--rect", "1", "0", "0", "1", "--f", "t*s"])
    assert code == 2
    assert run_main([]) == 2


# nested far deeper than Python's recursion limit: the parser, the
# differentiation of a long sum and of a tower of powers all recurse
_DEEP = {
    "parentheses": "(" * 2000 + "t" + ")" * 2000,
    "sin": "sin(" * 2000 + "t" + ")" * 2000,
    "powers": "t^" * 2000 + "s",
    "sum": " + ".join(["t*s"] * 2000),
}


@pytest.mark.parametrize("subcommand", ["enclose", "identity", "compare"])
@pytest.mark.parametrize("name", sorted(_DEEP))
def test_a_deeply_nested_f_is_a_usage_error(subcommand, name, capsys):
    assert run_main([subcommand, "--f", _DEEP[name], *_UNIT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --f: the expression is nested too deeply\n"


# ---------------------------------------------------------------------------
# subcommand behaviour
# ---------------------------------------------------------------------------


def test_enclose_bilinear_json():
    code, doc = _capture_json(
        ["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--point", "0.5", "0.5", "--bounds", "1", "1", "--json",
         "--no-timestamp"]
    )
    assert code == 0
    enc = doc["results"]["enclosure"]
    assert abs(enc["lo"] - 0.25) <= 1e-12
    assert abs(enc["hi"] - 0.25) <= 1e-12
    assert doc["flags"]["rigorous"] is True
    assert doc["schema_version"] == "1"


def test_enclose_auto_bounds_marks_nonrigorous():
    code, doc = _capture_json(
        ["enclose", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
         "--subdivide", "2", "2", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert doc["flags"]["rigorous"] is False
    enc = doc["results"]["enclosure"]
    assert enc["lo"] <= 1.3179021514544 <= enc["hi"]


def test_identity_json_values():
    code, doc = _capture_json(
        ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--point", "0.5", "0.5", "--json", "--no-timestamp"]
    )
    assert code == 0
    res = doc["results"]
    assert abs(res["oracle"]) <= 1e-12
    assert abs(res["derived"]) <= 1e-12
    assert abs(res["verbatim"] - (-0.09375)) <= 1e-12
    assert res["status_ok"] is True
    assert set(res["per_quadrant"]) == {"LL", "LU", "RL", "RU"}


def test_compare_json():
    code, doc = _capture_json(
        ["compare", "--f", "1", "--rect", "0", "1", "0", "1",
         "--bounds", "0", "0", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert doc["results"]["violated"]["t5_verbatim"] is True
    assert doc["results"]["violated"]["corrected"] is False
    assert doc["flags"]["violations"] == 1


def test_compare_checks_given_bounds_at_the_anchor():
    # the exact partial -cos(1/t)/t^2 is 1.654 at the centre, outside [-1, 1]
    code, doc = _capture_json(
        ["compare", "--f", "sin(1/t)*s", "--rect", "0.001", "1", "0", "1",
         "--bounds", "-1", "1", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert doc["flags"]["rigorous"] is False
    code, doc = _capture_json(
        ["compare", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--bounds", "1", "1", "--json", "--no-timestamp"]
    )
    assert doc["flags"]["rigorous"] is True


# the integral of t^s over [0.1, 1]^2, by mpmath
T_TO_THE_S = 0.5758058259742863
T_TO_THE_S_RECT = ["--rect", "0.1", "1", "0.1", "1"]


@pytest.mark.parametrize("m", [1, 2])
def test_enclose_checks_given_bounds_on_a_variable_exponent(m):
    # t^s had no exact mixed partial, so the bounds 0 0 went unchecked and
    # these enclosures, which miss the integral, were certified; its
    # partial t^(s-1) (1 + s log t) is 6.11 at (0.1, 0.1)
    code, doc = _capture_json(
        ["enclose", "--f", "t^s", *T_TO_THE_S_RECT, "--bounds", "0", "0",
         "--subdivide", str(m), str(m), "--json", "--no-timestamp"]
    )
    assert code == 0
    enclosure = doc["results"]["enclosure"]
    assert not enclosure["lo"] <= T_TO_THE_S <= enclosure["hi"]
    assert doc["results"]["rigorous"] is False
    assert doc["flags"]["rigorous"] is False


def test_compare_checks_given_bounds_on_a_variable_exponent():
    # the partial of t^s is 0.45 at the anchor, outside 0 0
    code, doc = _capture_json(
        ["compare", "--f", "t^s", *T_TO_THE_S_RECT, "--point", "0.3", "0.6",
         "--bounds", "0", "0", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert doc["flags"]["rigorous"] is False


def test_identity_of_a_variable_exponent():
    # identity refused t^s, which had no exact mixed partial
    code, doc = _capture_json(
        ["identity", "--f", "t^s", *T_TO_THE_S_RECT, "--point", "0.3", "0.6",
         "--json", "--no-timestamp"]
    )
    assert code == 0
    res = doc["results"]
    assert res["status_ok"] is True
    assert abs(res["derived"] - res["oracle"]) <= res["tol"] * (1 + abs(res["oracle"]))

    def partial(t, s):
        return t ** (s - 1.0) * (1.0 + s * np.log(t))

    simpson = simpson_kernel_weighted(partial, 0.1, 1, 0.1, 1, 0.3, 0.6)
    assert res["oracle"] == pytest.approx(simpson, abs=1e-9)
    assert res["oracle"] == pytest.approx(-0.00327022, abs=1e-8)


@pytest.mark.parametrize("text", ["sqrt(t)+sqrt(s)", "log(t+1)+sqrt(s)"])
def test_enclose_auto_bounds_with_identically_zero_partial(text):
    # the mixed partial used to keep 0 / (2 sqrt(t)) terms, which failed
    # with "division by zero" at t = 0
    code, doc = _capture_json(
        ["enclose", "--f", text, "--rect", "0", "1", "0", "1",
         "--subdivide", "2", "2", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert doc["flags"]["rigorous"] is False


def test_enclose_auto_bounds_where_the_partial_divides_by_sqrt():
    # the mixed partial of t*sqrt(t)*s was sqrt(t) + t * (1 / (2 * sqrt(t))),
    # which failed with "division by zero" at t = 0; simplify now rewrites
    # t * (1 / (2 * sqrt(t))) to 0.5 * sqrt(t)
    code, doc = _capture_json(
        ["enclose", "--f", "t*sqrt(t)*s", "--rect", "0", "1", "0", "1",
         "--subdivide", "2", "2", "--json", "--no-timestamp"]
    )
    assert code == 0
    enclosure = doc["results"]["enclosure"]
    assert enclosure["lo"] <= 0.2 <= enclosure["hi"]  # (2/5) * (1/2)
    assert doc["flags"]["rigorous"] is False


def test_enclose_folds_a_difference_of_equal_terms():
    # s - s folds to 0, so the exponent s-s+2 is the constant 2 and takes
    # the power rule; the exp-log rule's partial divides by t, which failed
    # with "division by zero" at t = 0
    argv = [*_UNIT, "--bounds", "auto", "--subdivide", "2", "2", "--json", "--no-timestamp"]
    code, doc = _capture_json(["enclose", "--f", "t^(s-s+2)*s", *argv])
    assert code == 0
    assert doc["results"] == _capture_json(["enclose", "--f", "t^2*s", *argv])[1]["results"]


def test_numerical_failure_exit_code():
    # log goes negative inside the rectangle -> DomainError -> exit 1
    code, _ = _capture(
        ["enclose", "--f", "log(t-1)", "--rect", "0", "2", "0", "1",
         "--bounds", "0", "1", "--json", "--no-timestamp"]
    )
    assert code == 1


_STEEP = ["--f", "exp(900*t*s)", *_UNIT]


@pytest.mark.parametrize("argv,message", [
    (["enclose", *_STEEP, "--subdivide", "2", "2", "--bounds", "0", "1"],
     "55 non-finite sample(s) while evaluating exp(900 * t * s)(1.0, .)"),
    (["enclose", *_STEEP, "--point", "0.5", "0.5", "--bounds", "0", "1"],
     "26 non-finite sample(s) while evaluating exp(900 * t * s)(1.0, .)"),
    (["compare", *_STEEP, "--bounds", "0", "1"],
     "26 non-finite sample(s) while evaluating exp(900 * t * s)(., 1.0)"),
    (["enclose", *_STEEP, "--bounds", "auto", "--subdivide", "2", "2"],
     "36 non-finite sample(s) while evaluating mixed partial of exp(900 * t * s)"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_samples_name_the_first_bad_line(argv, message, capsys):
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {message}\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_point_value_is_a_numerical_failure(capsys):
    # f(1, 1) = exp(709.9) overflows, the lines (at interior nodes) do not:
    # this used to print lo = -inf, hi = nan with rigorous: true
    argv = ["enclose", "--f", "exp(709.9*t*s)", *_UNIT, "--bounds", "0", "1e300"]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: 1 non-finite sample(s) while "
                            "evaluating exp(709.9 * t * s)\n")


_TINY = ["--rect", "0", "1e-200", "0", "1e-200"]
_HUGE = ["--rect", "-1e300", "1e300", "-1e300", "1e300"]


@pytest.mark.parametrize("argv", [
    # the area underflows to 0.0, and the rules divide by it
    ["compare", "--f", "t*s", *_TINY, "--bounds", "1", "1"],
    ["compare", "--f", "t*s", *_TINY, "--bounds", "auto"],
    # squares of the side lengths overflow a float
    ["compare", "--f", "1", *_HUGE, "--bounds", "0", "0"],
    ["compare", "--f", "1", *_HUGE, "--bounds", "auto"],
    ["enclose", "--f", "1", *_HUGE, "--bounds", "0", "0"],
    ["enclose", "--f", "1", *_HUGE, "--bounds", "auto"],
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_arithmetic_errors_are_numerical_failures(argv, capsys):
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("numerical failure: ")
    # Python's own text names no input: the line names the rectangle
    at = argv.index("--rect") + 1
    rect = " ".join(str(float(v)) for v in argv[at:at + 4])
    assert captured.err.endswith(f" on --rect {rect}\n")


@pytest.mark.parametrize("text,rect", [("t*s", _TINY[1:]), ("1", _HUGE[1:])])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_identity_on_extreme_rectangles_raises_no_arithmetic_error(text, rect):
    # identity succeeds on the 1e-200 square, where the integrals underflow
    # to 0; on the 1e300 square the products of the node offsets overflow,
    # and the NaN they leave is a non-finite failure, not a report
    r = ostrocube.make_rectangle(*map(float, rect))
    f = ostrocube.to_bivariate(ostrocube.parse_expression(text))
    if rect == _TINY[1:]:
        report = ostrocube.identity_report(f, r, r.center, ostrocube.QuadConfig())
        assert report.status_ok and report.oracle_value == 0.0
    else:
        with pytest.raises(ostrocube.NonFiniteSample, match="identity of 1 "):
            ostrocube.identity_report(f, r, r.center, ostrocube.QuadConfig())


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_identity_does_not_certify_non_finite_values(mode, capsys):
    # the oracle and every expansion are NaN on this square: no report,
    # rigorous or not, is printed
    assert run_main(["identity", "--f", "1", *_HUGE, *mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: the identity of 1 is not finite "
                            "on this rectangle\n")


def test_verify_exit_codes_and_expectations():
    code, doc = _capture_json(
        ["verify", "--trials", "5", "--seed", "3", "--rules", "t5",
         "--json", "--no-timestamp"]
    )
    assert code == 0  # t5 violations are expected by default
    assert doc["results"]["rules"]["t5"]["violations"] >= 1
    code, _ = _capture(
        ["verify", "--trials", "5", "--seed", "3", "--rules", "t5",
         "--expect-hold", "t5", "--json", "--no-timestamp"]
    )
    assert code == 3
    code, _ = _capture(
        ["verify", "--trials", "5", "--seed", "3", "--rules", "t3,t5",
         "--expect-hold", "t3", "--json", "--no-timestamp"]
    )
    assert code == 0


def test_verify_worst_case_reruns_to_reported_values():
    from ostrocube.cli import _VERIFY_CFG, _eval_rule_case

    code, doc = _capture_json(
        ["verify", "--trials", "25", "--seed", "11", "--json", "--no-timestamp"]
    )
    assert code == 0
    for rule, info in doc["results"]["rules"].items():
        case = info["worst_case"]
        assert case is not None
        outcome = _eval_rule_case(rule, case, _VERIFY_CFG)
        assert outcome.lhs == case["lhs"]
        assert outcome.rhs == case["rhs"]


def test_determinism_byte_identical():
    argv = ["verify", "--trials", "40", "--seed", "42", "--json", "--no-timestamp"]
    _, first = _capture(argv)
    _, second = _capture(argv)
    assert first == second


def test_golden_identity_document():
    argv = ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
            "--point", "0.5", "0.5", "--json", "--no-timestamp"]
    _, text = _capture(argv)
    assert text == (DATA / "golden_identity.json").read_text()


@pytest.mark.parametrize("extra, golden", [
    ([], "golden_verify.json"),
    (["--lambda", "0.5"], "golden_verify_lambda.json"),
])
def test_golden_verify_document(extra, golden):
    argv = ["verify", "--trials", "200", "--seed", "42", *extra, "--json", "--no-timestamp"]
    _, text = _capture(argv)
    assert text == (DATA / golden).read_text()


def test_golden_enclose_document():
    argv = ["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1",
            "--point", "0.5", "0.5", "--bounds", "1", "1",
            "--subdivide", "1", "1", "--json", "--no-timestamp"]
    _, text = _capture(argv)
    assert text == (DATA / "golden_enclose.json").read_text()


def test_text_mode_prints_full_precision():
    code, text = _capture(
        ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--point", "0.5", "0.5", "--no-timestamp"]
    )
    assert code == 0
    _, doc = _capture_json(
        ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--point", "0.5", "0.5", "--json", "--no-timestamp"]
    )
    assert repr(doc["results"]["verbatim"]) in text
    assert repr(doc["results"]["max_abs_discrepancy_verbatim"]) in text


def test_out_flag_writes_json_file(tmp_path):
    target = tmp_path / "report.json"
    code, text = _capture(
        ["enclose", "--f", "t*s", "--rect", "0", "1", "0", "1",
         "--bounds", "1", "1", "--out", str(target), "--no-timestamp"]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["subcommand"] == "enclose"
    assert "results" in doc
    # stdout stayed in text mode
    assert text.startswith("ostrocube enclose")


def test_text_mode_renders_no_json_document(monkeypatch):
    argv = ["enclose", "--f", "sin(t)*cos(s)", *_UNIT, "--bounds", "-1", "1",
            "--subdivide", "8", "8", "--no-timestamp"]
    expected = _capture(argv)

    def forbidden(*args, **kwargs):
        raise AssertionError("text mode rendered the JSON document")

    monkeypatch.setattr(ostrocube.cli, "_render_json", forbidden)
    assert _capture(argv) == expected


def test_out_file_holds_the_bytes_json_mode_prints(tmp_path):
    argv = ["enclose", "--f", "sin(t)*cos(s)", *_UNIT, "--bounds", "-1", "1",
            "--subdivide", "8", "8", "--no-timestamp"]
    _, printed = _capture([*argv, "--json"])
    for mode in ([], ["--json"]):
        target = tmp_path / f"report{len(mode)}.json"
        code, text = _capture([*argv, *mode, "--out", str(target)])
        assert code == 0
        assert target.read_bytes() == printed.encode()
        assert (text == printed) == bool(mode)


def test_run_accepts_stream_override():
    inv = parse_args(["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
                      "--json", "--no-timestamp"])
    buf = io.StringIO()
    assert run(inv, stdout=buf) == 0
    doc = json.loads(buf.getvalue())
    assert doc["subcommand"] == "identity"


def test_verify_rule_order_is_canonical():
    code, doc = _capture_json(
        ["verify", "--trials", "3", "--seed", "1",
         "--rules", "corrected,t5,t1", "--json", "--no-timestamp"]
    )
    assert code == 0
    assert list(doc["results"]["rules"]) == ["t1", "t5", "corrected"]


def test_verify_corrected_rule_alone():
    code, doc = _capture_json(
        ["verify", "--trials", "10", "--seed", "9", "--rules", "corrected",
         "--json", "--no-timestamp"]
    )
    assert code == 0
    info = doc["results"]["rules"]["corrected"]
    assert info["violations"] == 0
    assert info["trials"] == 13  # 10 trials + 3 fixtures


@pytest.mark.parametrize("cells", [0, 1, 2, 4096])
def test_json_rendering_equals_json_dumps(cells):
    # the per-cell widths are joined with float.__repr__, everything else
    # is json.dumps(indent=2); a non-finite width takes json.dumps whole
    _, doc = _capture_json(["enclose", "--f", "exp(t*s)", *_UNIT, "--bounds", "1", "6",
                            "--subdivide", "2", "2", "--json", "--no-timestamp"])
    rng = random.Random(cells)
    widths = [rng.choice([-1.0, 1.0]) * rng.random() * 10.0 ** rng.randint(-320, 300)
              for _ in range(cells)]
    if cells == 2:
        widths[0] = -0.0
    doc["results"]["per_cell_width"] = widths
    assert _render_json(doc) == json.dumps(doc, indent=2)
    if cells:
        doc["results"]["per_cell_width"] = widths + [float("inf"), float("nan")]
        assert _render_json(doc) == json.dumps(doc, indent=2)


def _json_value(rnd: random.Random, depth: int):
    """A random value built of dict, list, tuple, str, int, float, bool and
    None, with empty containers, escapes, non-ASCII text, signed zeros,
    non-finite floats and lists of finite floats among them."""
    kind = rnd.randrange(9 if depth else 6)
    if kind == 0:
        return rnd.choice([None, True, False])
    if kind == 1:
        return rnd.choice([0, -7, 2**70, -(2**64) + 1])
    if kind == 2:
        return rnd.choice([0.0, -0.0, 1e-320, -2.5e300, 0.1, math.inf, -math.inf, math.nan])
    if kind == 3:
        return rnd.choice(["", "a", 'q"uote\\', "tab\tnl\n", "\u00e9\u4e2d\U0001f600", "\x00\x1f"])
    if kind == 4:
        return [rnd.uniform(-1e3, 1e3) * 10.0 ** rnd.randint(-300, 300)
                for _ in range(rnd.randrange(4))]
    if kind == 5:
        return rnd.choice([[], (), {}])
    if kind == 6:
        return {rnd.choice(["k", "per_cell_width", "\u00e9", ""]) + str(j): _json_value(rnd, depth - 1)
                for j in range(rnd.randrange(1, 4))}
    items = [_json_value(rnd, depth - 1) for _ in range(rnd.randrange(1, 4))]
    return items if kind == 7 else tuple(items)


@pytest.mark.parametrize("seed", range(40))
def test_json_writer_gives_the_bytes_of_json_dumps(seed):
    doc = _json_value(random.Random(seed), 4)
    assert _render_json(doc) == json.dumps(doc, indent=2)


class _Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize("doc", [
    {"x": np.float64(0.25), "y": [np.float64(1.5), 2.0]},
    {"level": _Level.HIGH, "levels": [_Level.HIGH, 1.0]},
    {"ordered": collections.OrderedDict(b=1, a=[2.0, (3, "x")])},
    {1: "int key", 2.5: [], None: {}, True: (), "s": 1.0},
    [{"nested": [[], [1.0, float("nan")], [True, 1.0]]}],
    "top-level string",
    1.0,
])
def test_json_writer_takes_json_dumps_for_other_types(doc):
    assert _render_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{"x": np.int64(3)}, [object()], {(1, 2): 3}])
def test_json_writer_raises_where_json_dumps_does(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        _render_json(doc)


def test_json_output_of_a_grid_is_json_dumps():
    code, out = _capture(["enclose", "--f", "sin(t)*cos(s)", *_UNIT, "--bounds", "-1", "1",
                          "--subdivide", "64", "64", "--json", "--no-timestamp"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["enclose", "--f", "sin(t)*cos(s)", *_UNIT, "--bounds", "-1", "1", "--subdivide", "3", "2",
     "--json", "--no-timestamp"],
    ["identity", "--f", "t*s", *_UNIT, "--no-timestamp"],
    ["enclose", "--f", "log(t-1)", "--rect", "0", "2", "0", "1", "--bounds", "0", "1"],
    ["enclose", "--f", "t*s"],
])
def test_python_m_ostrocube_runs_the_cli(argv):
    package = Path(ostrocube.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ostrocube", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == _capture(argv)


@pytest.mark.parametrize("argv", [
    ["identity", "--f", "1", *_UNIT],
    ["verify", "--trials", "8", "--json"],
])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    # the reader's end is closed before the run, so the first write or the
    # last flush meets a broken pipe; it raised BrokenPipeError out of the CLI
    package = Path(ostrocube.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "ostrocube", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""
