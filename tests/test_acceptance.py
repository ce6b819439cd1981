"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test is tagged with the `acceptance` marker; conftest prints a
per-criterion PASS/FAIL line in the terminal summary.
"""

import io
import json
import math
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from helpers import brute_kernel_moment_2d, random_ast, random_rect_point
from ostrocube import (
    QuadConfig,
    Quadrant,
    abs_moment,
    cheng_1d,
    composite_enclosure,
    derivative_bounds,
    differentiate,
    eval_expr,
    full_expansion_derived,
    full_expansion_verbatim,
    integrate_2d,
    kernel_weighted_integral,
    make_point,
    make_rectangle,
    ostrowski_1d,
    parse_expression,
    quadrant_expansion_verbatim,
    signed_moment,
    to_bivariate,
    to_string,
    to_univariate,
    tokenize,
)
from ostrocube.core import DerivativeBound1D, Interval1D
from ostrocube.cli import run_main
from ostrocube.expr import (
    LexError,
    ParseError,
    XorShift64Star,
    derive_seed,
    random_polynomial,
)
from ostrocube.identity import quadrant_oracle
from ostrocube.quadrature import estimate_bounds

DATA = Path(__file__).parent / "data"
Q = QuadConfig(gl_order=16, panels=1)
UNIT = make_rectangle(0, 1, 0, 1)
MID = make_point(UNIT, 0.5, 0.5)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_main(argv)
    return code, buf.getvalue()


def _corpus_case(seed: int, k: int, max_degree: int = 6):
    """One seeded trial: polynomial, unit-scale rectangle, interior anchor."""
    rng = XorShift64Star(derive_seed(seed, k))
    poly = random_polynomial(rng, max_degree)
    (a, b, c, d), (x, y) = random_rect_point(rng)
    r = make_rectangle(a, b, c, d)
    return to_bivariate(poly), r, make_point(r, x, y)


@pytest.mark.acceptance(1, "moment closed forms vs brute force")
def test_criterion_1_moment_closed_forms():
    rng = XorShift64Star(1)
    boundary_cases = [
        ((0.0, 1.0, 0.0, 1.0), (1.0, 1.0)),
        ((0.0, 1.0, 0.0, 1.0), (0.0, 0.5)),
        ((-1.0, 2.0, 0.0, 0.5), (2.0, 0.0)),
    ]
    cases = boundary_cases + [
        random_rect_point(rng, span=3.0, min_width=0.1) for _ in range(197)
    ]
    assert len(cases) == 200
    for (a, b, c, d), (x, y) in cases:
        r = make_rectangle(a, b, c, d)
        pt = make_point(r, x, y)
        brute_signed = brute_kernel_moment_2d(a, b, c, d, x, y, absolute=False)
        brute_abs = brute_kernel_moment_2d(a, b, c, d, x, y, absolute=True)
        assert abs(signed_moment(r, pt) - brute_signed) <= 1e-8 * (1 + abs(brute_signed))
        assert abs(abs_moment(r, pt) - brute_abs) <= 1e-8 * (1 + abs(brute_abs))
    assert abs(abs_moment(UNIT, MID) - 25 / 1024) <= 1e-12


@pytest.mark.acceptance(2, "identity audit: derived==oracle, stated defects pinned")
def test_criterion_2_identity_audit():
    for k in range(500):
        f, r, pt = _corpus_case(seed=2, k=k)
        oracle = kernel_weighted_integral(f, r, pt, Q)
        derived = full_expansion_derived(f, r, pt, Q)
        assert abs(derived - oracle) <= 1e-9 * (1 + abs(oracle)), (k, f.label)
    one = to_bivariate(parse_expression("1"))
    ts = to_bivariate(parse_expression("t*s"))
    slab = to_bivariate(parse_expression("(1+t)*s"))
    corner = make_point(UNIT, 1.0, 1.0)
    assert abs(full_expansion_verbatim(one, UNIT, MID, Q) - 3 / 16) <= 1e-12
    assert abs(kernel_weighted_integral(one, UNIT, MID, Q)) <= 1e-12
    assert abs(full_expansion_verbatim(ts, UNIT, MID, Q) - (-3 / 32)) <= 1e-12
    assert abs(kernel_weighted_integral(ts, UNIT, MID, Q)) <= 1e-12
    stated_ll = quadrant_expansion_verbatim(slab, UNIT, corner, Quadrant.LL, Q)
    oracle_ll = quadrant_oracle(slab, UNIT, corner, Quadrant.LL, Q)
    assert abs(stated_ll - (-1 / 16)) <= 1e-12
    assert abs(oracle_ll - 1 / 16) <= 1e-12


@pytest.mark.acceptance(3, "corrected inequality holds on 1000 seeded trials")
def test_criterion_3_corrected_inequality():
    violations = 0
    for k in range(1000):
        f, r, pt = _corpus_case(seed=3, k=k)
        db = estimate_bounds(f, r, grid_n=33, pad_rel=0.25)
        derived = full_expansion_derived(f, r, pt, Q)
        lhs = abs(derived - db.midpoint * signed_moment(r, pt))
        area_moment = abs_moment(r, pt)
        if lhs > db.halfwidth * area_moment + 1e-12 * (1 + area_moment):
            violations += 1
    assert violations == 0


@pytest.mark.acceptance(4, "rule-catalogue audit via the verify subcommand")
def test_criterion_4_rule_catalogue_audit():
    code, text = _cli(
        ["verify", "--trials", "1000", "--seed", "42", "--json", "--no-timestamp"]
    )
    assert code == 0
    rules = json.loads(text)["results"]["rules"]
    assert rules["t5"]["violations"] >= 1
    for rule in ("t1", "t2", "t3", "t4", "corrected"):
        assert rules[rule]["violations"] == 0, rule
    for lam in ("0.25", "0.5", "1"):
        code, text = _cli(
            ["verify", "--trials", "1000", "--seed", "42", "--rules", "t4",
             "--lambda", lam, "--json", "--no-timestamp"]
        )
        assert code == 0
        assert json.loads(text)["results"]["rules"]["t4"]["violations"] == 0, lam


@pytest.mark.acceptance(5, "composite enclosures contain the oracle integral")
def test_criterion_5_enclosure_containment():
    q = QuadConfig()
    for k in range(200):
        f, r, _ = _corpus_case(seed=5, k=k)
        db = estimate_bounds(f, r, grid_n=33, pad_rel=0.25)
        rep = composite_enclosure(f, r, db, 4, 4, q)
        oracle = integrate_2d(f, r, q)
        assert rep.enclosure.contains(oracle), (k, f.label)
    exp_ts = to_bivariate(parse_expression("exp(t*s)"))
    rep = composite_enclosure(
        exp_ts, UNIT, derivative_bounds(1.0, 2 * math.e), 4, 4, q
    )
    assert rep.enclosure.contains(1.3179021514544)
    expected_width = 25 * (2 * math.e - 1) / (1024 * 16)
    assert abs(rep.enclosure.width - expected_width) <= 1e-10


@pytest.mark.acceptance(6, "subdivision law: width * m * n constant")
def test_criterion_6_subdivision_law():
    q = QuadConfig()
    exp_ts = to_bivariate(parse_expression("exp(t*s)"))
    db = derivative_bounds(1.0, 2 * math.e)
    widths = {
        m: composite_enclosure(exp_ts, UNIT, db, m, m, q).enclosure.width
        for m in (1, 2, 4, 8)
    }
    reference = widths[1]
    for m in (2, 4, 8):
        assert abs(widths[m] * m * m - reference) <= 1e-10 * reference
    assert abs(widths[2] - widths[1] / 4) <= 1e-10 * widths[1]


@pytest.mark.acceptance(7, "one-dimensional rule worked values")
def test_criterion_7_one_dimensional_rules():
    iv = Interval1D(0.0, 1.0)
    square = to_univariate(parse_expression("t^2"))
    linear = to_univariate(parse_expression("t"))
    out = ostrowski_1d(square, iv, 0.5, DerivativeBound1D.abs_bound(2.0), Q)
    assert abs(out.lhs - 1 / 12) <= 1e-12
    assert abs(out.rhs - 0.5) <= 1e-12
    assert out.lhs <= out.rhs
    out = cheng_1d(square, iv, 0.0, DerivativeBound1D.from_range(0.0, 2.0), Q)
    assert abs(out.lhs - 1 / 6) <= 1e-12
    assert abs(out.rhs - 0.25) <= 1e-12
    assert out.lhs <= out.rhs
    out = cheng_1d(linear, iv, 0.3, DerivativeBound1D.from_range(1.0, 1.0), Q)
    assert abs(out.lhs) <= 1e-12
    assert out.rhs == 0.0


@pytest.mark.acceptance(8, "parser and differentiator properties")
def test_criterion_8_parser_and_differentiator():
    # grammar goldens
    toks = tokenize("t*s")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "t"), ("op", "*"), ("ident", "s"),
    ]
    with pytest.raises(LexError):
        tokenize("2..5")
    with pytest.raises(ParseError):
        parse_expression("t++s")
    assert to_string(parse_expression("-t^2")) == "-t^2"

    # mixed partial of t^2 s^2 equals 4ts pointwise
    mixed = differentiate(differentiate(parse_expression("t^2*s^2"), "t"), "s")
    for i in range(5):
        for j in range(5):
            t, s = -1 + 0.5 * i, -1 + 0.5 * j
            assert abs(eval_expr(mixed, t, s) - 4 * t * s) <= 1e-12

    # 200 random syntax trees vs central finite differences
    rnd = random.Random(8080)
    h = 2.2204460492503131e-16 ** (1 / 3)
    checked = 0
    while checked < 200:
        ast = random_ast(rnd, 5)
        dt = differentiate(ast, "t")
        ds = differentiate(ast, "s")
        checked += 1
        for _ in range(10):
            t = rnd.uniform(0.3, 1.2)
            s = rnd.uniform(0.3, 1.2)
            fd_t = (eval_expr(ast, t + h, s) - eval_expr(ast, t - h, s)) / (2 * h)
            fd_s = (eval_expr(ast, t, s + h) - eval_expr(ast, t, s - h)) / (2 * h)
            exact_t = eval_expr(dt, t, s)
            exact_s = eval_expr(ds, t, s)
            assert abs(exact_t - fd_t) <= 1e-6 * (1 + abs(exact_t)), to_string(ast)
            assert abs(exact_s - fd_s) <= 1e-6 * (1 + abs(exact_s)), to_string(ast)

    # fuzzing: positioned rejection or success, never a crash
    rnd = random.Random(424242)
    alphabet = "ts+-*/^()0123456789. epilogcqrxnab_,"
    for _ in range(10_000):
        text = "".join(
            rnd.choice(alphabet) for _ in range(rnd.randint(0, 24))
        )
        try:
            parse_expression(text)
        except (LexError, ParseError):
            pass


@pytest.mark.acceptance(9, "CLI determinism and schema goldens")
def test_criterion_9_cli_determinism():
    argv = ["verify", "--trials", "60", "--seed", "42", "--json", "--no-timestamp"]
    code_a, first = _cli(argv)
    code_b, second = _cli(argv)
    assert code_a == code_b == 0
    assert first == second
    argv = ["identity", "--f", "t*s", "--rect", "0", "1", "0", "1",
            "--point", "0.5", "0.5", "--json", "--no-timestamp"]
    _, text = _cli(argv)
    assert text == (DATA / "golden_identity.json").read_text()
    doc = json.loads(text)
    assert list(doc) == [
        "schema_version", "subcommand", "inputs", "results", "flags", "runtime_ms",
    ]
    assert doc["schema_version"] == "1"
