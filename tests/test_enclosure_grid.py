"""The grid assembler behind single_cell_enclosure and composite_enclosure.

Every report must equal, field for field and bit for bit, the one the
cell-by-cell reference loop in helpers.py builds; sampling must stay in
blocks, so memory does not grow with the grid.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    reference_composite,
    reference_estimate_bounds,
    reference_single_cell,
)
from ostrocube import (
    QuadConfig,
    composite_enclosure,
    derivative_bounds,
    make_point,
    make_rectangle,
    parse_expression,
    single_cell_enclosure,
    to_bivariate,
)
from ostrocube.cli import run_main
from ostrocube.core import BivariateFunction
from ostrocube.expr import XorShift64Star, random_polynomial
from ostrocube import expr
from ostrocube.quadrature import BLOCK_SAMPLES, REGISTER_BLOCK_SAMPLES, estimate_bounds

Q = QuadConfig()
UNIT = make_rectangle(0, 1, 0, 1)
STRADDLE = make_rectangle(-0.35, 0.8, -0.2, 0.95)


def _expr(text):
    return to_bivariate(parse_expression(text))


def _polynomial_case():
    f = to_bivariate(random_polynomial(XorShift64Star(20261018), 5))
    # a sampled range widened by its own width holds at every cell midpoint
    return f, STRADDLE, reference_estimate_bounds(f, STRADDLE, 65, 1.0)


def _plain_case():
    # scalar-only Python callables: no vectorization; the mixed partial
    # -e^(t/2) ((t/2 + 1) sin(ts) + ts cos(ts)) lies in [-2.972, 0]
    f = BivariateFunction(
        fn=lambda t, s: math.exp(0.5 * t) * math.cos(t * s),
        mixed_fn=lambda t, s: -math.exp(0.5 * t) * ((0.5 * t + 1.0) * math.sin(t * s)
                                                    + t * s * math.cos(t * s)),
    )
    return f, UNIT, derivative_bounds(-3.0, 0.0)


# integrand -> (f, rectangle, valid bounds on its mixed partial)
CASES = {
    "exp": (_expr("exp(t*s)"), UNIT, derivative_bounds(1.0, 2 * math.e)),
    "sincos": (_expr("sin(t)*cos(s)"), UNIT, derivative_bounds(-1.0, 1.0)),
    "log": (_expr("log(2+t+s)*t"), UNIT, derivative_bounds(0.0, 1.0)),
    "poly": _polynomial_case(),
    "plain": _plain_case(),
}
GRIDS = [(1, 1), (2, 3), (5, 2), (8, 8)]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("m,n", GRIDS)
@pytest.mark.parametrize("given", [True, False], ids=["given", "auto"])
def test_composite_matches_reference_loop(name, m, n, given):
    f, r, db = CASES[name]
    bounds = db if given else None
    report = composite_enclosure(f, r, bounds, m, n, Q)
    expected = reference_composite(f, r, bounds, m, n, Q)
    for field in expected.__dataclass_fields__:
        assert getattr(report, field) == getattr(expected, field), field


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("where", ["center", "boundary"])
@pytest.mark.parametrize("given", [True, False], ids=["given", "auto"])
def test_single_cell_matches_reference_loop(name, where, given):
    f, r, db = CASES[name]
    if where == "center":
        pt = r.center
    else:
        # off-centre, on the left edge of the rectangle
        pt = make_point(r, r.t_axis.lo, r.s_axis.lo + 0.3 * r.s_axis.length)
    if given:
        report = single_cell_enclosure(f, r, pt, db, Q)
        expected = reference_single_cell(f, r, pt, db, Q)
    else:
        report = single_cell_enclosure(
            f, r, pt, estimate_bounds(f, r, grid_n=33, pad_rel=0.05), Q,
            bounds_estimated=True,
        )
        expected = reference_single_cell(
            f, r, pt, reference_estimate_bounds(f, r, 33, 0.05), Q,
            bounds_estimated=True,
        )
    for field in expected.__dataclass_fields__:
        assert getattr(report, field) == getattr(expected, field), field


def test_every_call_of_f_gets_at_most_one_block(monkeypatch):
    sizes = []

    # f gets coordinates that broadcast; count the values it returns
    def fn(t, s):
        sizes.append(np.broadcast(t, s).size)
        return np.sin(t) * np.cos(s)

    def mixed(t, s):
        sizes.append(np.broadcast(t, s).size)
        return -np.cos(t) * np.sin(s)

    f = BivariateFunction(fn=fn, mixed_fn=mixed, vectorized=True)
    # 8 x 70 takes several s-lines per call and splits each t-line
    for m, n in ((40, 24), (8, 70)):
        composite_enclosure(f, UNIT, None, m, n, Q)
        assert max(sizes) <= BLOCK_SAMPLES
        sizes.clear()
        composite_enclosure(f, UNIT, derivative_bounds(-1, 1), m, n, Q)
        assert max(sizes) <= BLOCK_SAMPLES
        sizes.clear()

    # the lines and sampled bounds of a compiled expression run blocks of
    # up to REGISTER_BLOCK_SAMPLES values into registers
    runs = []
    run = expr.run_program

    def counted(program, t, s, registers=None, memo=None):
        if registers is not None:
            runs.append(np.broadcast(t, s).size)
        return run(program, t, s, registers, memo)

    monkeypatch.setattr(expr, "run_program", counted)
    g = _expr("sin(t)*cos(s)")
    for m, n in ((40, 24), (8, 70), (64, 64)):
        for bounds in (None, derivative_bounds(-1, 1)):
            composite_enclosure(g, UNIT, bounds, m, n, Q)
            assert BLOCK_SAMPLES < max(runs) <= REGISTER_BLOCK_SAMPLES
            runs.clear()


@pytest.mark.parametrize("bounds", [derivative_bounds(-1, 1), None], ids=["given", "auto"])
def test_composite_memory_stays_flat(bounds):
    f = _expr("sin(t)*cos(s)")
    composite_enclosure(f, UNIT, bounds, 2, 2, Q)  # warm caches
    tracemalloc.start()
    try:
        report = composite_enclosure(f, UNIT, bounds, 64, 64, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cells == 64 * 64
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bounds", [["0", "0"], ["auto"]])
def test_domain_error_inside_grid_still_exits_1(bounds, capsys):
    code = run_main(["enclose", "--f", "log(t-1)", "--rect", "0", "2", "0", "1",
                     "--bounds", *bounds, "--subdivide", "4", "4", "--json"])
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_given_bounds_contradicted_by_exact_partial_are_not_rigorous(capsys):
    # the mixed partial -cos(1/t)/t^2 ranges from -15.9 to 248.1 over the
    # cell midpoints, far outside the claimed [-1, 1]
    code = run_main(["enclose", "--f", "sin(1/t)*s", "--rect", "0.001", "1", "0", "1",
                     "--bounds", "-1", "1", "--subdivide", "8", "8", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["rigorous"] is False
    assert doc["flags"]["rigorous"] is False


def test_single_cell_contradicted_bounds_are_not_rigorous():
    f = _expr("exp(t*s)")
    pt = make_point(UNIT, 0.9, 0.9)  # mixed partial (1 + 0.81) e^0.81 = 4.07 there
    report = single_cell_enclosure(f, UNIT, pt, derivative_bounds(1.0, 2.0), Q)
    assert not report.rigorous
    assert single_cell_enclosure(f, UNIT, pt, derivative_bounds(1.0, 2 * math.e), Q).rigorous


def test_bounds_check_needs_an_exact_partial():
    f = BivariateFunction(fn=CASES["plain"][0].fn)  # no mixed_fn
    report = composite_enclosure(f, UNIT, derivative_bounds(0.0, 0.0), 2, 2, Q)
    assert report.rigorous
