"""One failure rule for every sampler and every integrand.

When a block of line_integrals, cell_bounds or a split grid raises or
reduces to a non-finite value, its units are sampled again one at a time,
each in one call: lines in the order of the fixed coordinates, cells in
row-major order, a split grid whole. The first unit that fails raises its
first failing guard or its count of non-finite samples. So the report does
not depend on the block size, or on whether f is compiled or a plain
callable; and the CLI, which ignores numpy's floating-point errors, prints
one line for it and no numpy warning.
"""

import dataclasses
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from test_enclose_digest import _FAILURES as ENCLOSE_FAILURES
from test_enclose_digest import _INVOCATIONS, _UNIT
from ostrocube import QuadConfig, parse_expression, quadrature, to_bivariate
from ostrocube.cli import run_main
from ostrocube.expr import DomainError
from ostrocube.quadrature import BLOCK_SAMPLES, NonFiniteSample, cell_bounds, gl_nodes

PINNED = json.loads((Path(__file__).parent / "data" / "identity_compare_md5.json").read_text())
_HUGE = ["--rect", "-1e300", "1e300", "-1e300", "1e300"]


def _failing_commands() -> dict:
    commands = {f"pin-{k}": pin["argv"] for k, pin in enumerate(PINNED) if pin["exit"]}
    for text, bounds, _, _ in ENCLOSE_FAILURES:
        commands[f"enclose-{text}-{bounds}"] = [
            "enclose", "--f", text, *_UNIT, "--bounds", *bounds.split(),
            "--subdivide", "64", "64", "--json"]
    for key in ("overflow-96-given", "overflow-48-auto", "logdomain-32-given",
                "logdomain-32-auto"):
        commands[f"invocation-{key}"] = ["enclose", *_INVOCATIONS[key][0], "--json"]
    # the rectangles whose node offsets, squares or area leave the floats
    commands.update({
        "tiny-compare": ["compare", "--f", "t*s", "--rect", "0", "1e-200", "0", "1e-200",
                         "--bounds", "1", "1"],
        "huge-identity": ["identity", "--f", "1", *_HUGE],
        "huge-enclose": ["enclose", "--f", "1", *_HUGE, "--bounds", "auto"],
        "huge-compare": ["compare", "--f", "1", *_HUGE, "--bounds", "auto"],
    })
    return commands


FAILING = _failing_commands()


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run_main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("key", sorted(FAILING))
def test_a_failing_command_prints_one_line_and_no_numpy_warning(key):
    code, out, err, caught = _run(FAILING[key])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")
    assert caught == []


def _wrapped(f):
    """f as a plain callable: the same values, no program to run."""
    return dataclasses.replace(f, fn=lambda t, s: f.fn(t, s),
                               mixed_fn=lambda t, s: f.mixed_fn(t, s))


@pytest.mark.parametrize("cap", [quadrature.REGISTER_BLOCK_SAMPLES, BLOCK_SAMPLES])
@pytest.mark.parametrize("wrapped", [False, True], ids=["compiled", "wrapped"])
def test_a_line_longer_than_a_block_reports_its_whole_count(cap, wrapped, monkeypatch):
    # the lines of a 96 x 96 enclosure: 96 segments of 128 nodes, 12288
    # values, more than BLOCK_SAMPLES; exp(800*t) overflows on the second
    # line, all along it
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", cap)
    f = to_bivariate(parse_expression("exp(800*t)*(s+1)"))
    f = _wrapped(f) if wrapped else f
    edges = np.linspace(0.0, 1.0, 97)
    nodes, weights = gl_nodes(edges[:-1], edges[1:], QuadConfig())
    assert nodes.size == 12288
    with np.errstate(all="ignore"), pytest.raises(NonFiniteSample) as info:
        quadrature.line_integrals(f, "t", [0.5, 0.890625, 0.95], nodes, weights)
    assert str(info.value) == ("12288 non-finite sample(s) while evaluating "
                               "exp(800 * t) * (s + 1)(0.890625, .)")


@pytest.mark.parametrize("cap", [quadrature.REGISTER_BLOCK_SAMPLES, BLOCK_SAMPLES])
@pytest.mark.parametrize("wrapped", [False, True], ids=["compiled", "wrapped"])
def test_cell_bounds_name_the_first_failing_cells_guard(cap, wrapped, monkeypatch):
    # cell (0, 0) fails the sqrt guard only; a block that also holds a cell
    # with t = 0.5 on its edge meets the division in the mixed partial first
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", cap)
    f = to_bivariate(parse_expression("log(t-0.5)*sqrt(s-0.5)"))
    f = _wrapped(f) if wrapped else f
    edges = np.linspace(0.0, 1.0, 9)
    with np.errstate(all="ignore"), pytest.raises(DomainError) as info:
        cell_bounds(f, edges, edges, 17, 0.1)
    assert str(info.value) == "sqrt of a negative value"


@pytest.mark.parametrize("cap", [quadrature.REGISTER_BLOCK_SAMPLES, BLOCK_SAMPLES])
def test_cell_bounds_count_the_first_failing_cell(cap, monkeypatch):
    # the mixed partial 900*exp(900*s) overflows from s = 0.7811 on: the
    # first cell of a 64 x 64 grid to meet it is (0, 49), on its last line
    # of samples, s = 0.78125
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", cap)
    f = to_bivariate(parse_expression("exp(900*s)*t"))
    edges = np.linspace(0.0, 1.0, 65)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteSample) as info:
        cell_bounds(f, edges, edges, 17, 0.1)
    assert str(info.value) == ("17 non-finite sample(s) while evaluating "
                               "mixed partial of exp(900 * s) * t")
