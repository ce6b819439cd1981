import math

import pytest

from ostrocube import (
    Lambda,
    QuadConfig,
    compare_bounds,
    composite_enclosure,
    derivative_bounds,
    integrate_2d,
    make_point,
    make_rectangle,
    parse_expression,
    single_cell_enclosure,
    to_bivariate,
)
from ostrocube.expr import XorShift64Star, random_polynomial
from ostrocube.quadrature import estimate_bounds

Q = QuadConfig()
UNIT = make_rectangle(0, 1, 0, 1)
MID = make_point(UNIT, 0.5, 0.5)

ONE = to_bivariate(parse_expression("1"))
TS = to_bivariate(parse_expression("t*s"))
EXP_TS = to_bivariate(parse_expression("exp(t*s)"))
SERIES = sum(1.0 / (n * math.factorial(n)) for n in range(1, 30))
EXP_BOUNDS = derivative_bounds(1.0, 2 * math.e)


def test_single_cell_bilinear_collapses():
    rep = single_cell_enclosure(TS, UNIT, MID, derivative_bounds(1, 1), Q)
    assert rep.enclosure.width <= 1e-12
    assert rep.enclosure.contains(0.25)
    assert rep.enclosure.center == pytest.approx(0.25, abs=1e-13)
    assert rep.rigorous and rep.cells == 1


def test_single_cell_width_formula():
    rep = single_cell_enclosure(TS, UNIT, MID, derivative_bounds(0, 1), Q)
    assert rep.enclosure.width == pytest.approx(25 / 1024, abs=1e-12)


def test_single_cell_exp_contains_series_value():
    rep = single_cell_enclosure(EXP_TS, UNIT, MID, EXP_BOUNDS, Q)
    assert rep.enclosure.contains(1.3179021514544)
    assert rep.enclosure.contains(SERIES)


def test_single_cell_off_center_anchor():
    pt = make_point(UNIT, 0.25, 0.75)
    rep = single_cell_enclosure(EXP_TS, UNIT, pt, EXP_BOUNDS, Q)
    assert rep.enclosure.contains(SERIES)
    assert rep.point_used == pt


def test_composite_bilinear_any_grid():
    for m, n in [(1, 1), (2, 3), (4, 4)]:
        rep = composite_enclosure(TS, UNIT, derivative_bounds(1, 1), m, n, Q)
        assert rep.enclosure.width <= 1e-12
        assert rep.enclosure.contains(0.25)
        assert rep.cells == m * n
        assert len(rep.per_cell_width) == m * n


def test_composite_exp_width_formula():
    rep = composite_enclosure(EXP_TS, UNIT, EXP_BOUNDS, 4, 4, Q)
    expected = 25 * (2 * math.e - 1) / (1024 * 16)
    assert abs(rep.enclosure.width - expected) <= 1e-10
    assert rep.enclosure.contains(1.3179021514544)
    assert rep.rigorous


def test_subdivision_law():
    widths = {}
    for m in (1, 2, 4, 8):
        rep = composite_enclosure(EXP_TS, UNIT, EXP_BOUNDS, m, m, Q)
        widths[m] = rep.enclosure.width
    products = [widths[m] * m * m for m in (1, 2, 4, 8)]
    for value in products[1:]:
        assert abs(value - products[0]) <= 1e-10 * products[0]
    # doubling both axes quarters the width
    assert widths[2] == pytest.approx(widths[1] / 4, rel=1e-9)
    assert widths[8] == pytest.approx(widths[4] / 4, rel=1e-9)


def test_monotonicity_in_bounds():
    narrow = single_cell_enclosure(EXP_TS, UNIT, MID, derivative_bounds(1.0, 5.0), Q)
    wide = single_cell_enclosure(EXP_TS, UNIT, MID, derivative_bounds(0.0, 6.0), Q)
    assert wide.enclosure.width >= narrow.enclosure.width
    assert wide.enclosure.lo <= narrow.enclosure.lo
    assert wide.enclosure.hi >= narrow.enclosure.hi


def test_midpoint_center_independent_of_bound_midpoint():
    # at cell midpoints the signed moment vanishes, so shifting both bounds
    # by a constant moves nothing but the flagged derivative window
    centers = []
    for shift in (0.0, 5.0, -3.0):
        rep = composite_enclosure(
            EXP_TS, UNIT, derivative_bounds(1.0 + shift, 2.0 + shift), 2, 2, Q
        )
        centers.append(rep.enclosure.center)
    assert centers[0] == pytest.approx(centers[1], abs=1e-12)
    assert centers[0] == pytest.approx(centers[2], abs=1e-12)


def test_composite_estimated_bounds_flagged_nonrigorous():
    rep = composite_enclosure(EXP_TS, UNIT, None, 2, 2, Q)
    assert not rep.rigorous
    assert rep.enclosure.contains(SERIES)
    assert rep.bounds_used.lower <= 1.0 + 1e-6
    assert rep.bounds_used.upper >= 2 * math.e - 1e-3


def test_single_cell_estimated_flag_passthrough():
    db = estimate_bounds(EXP_TS, UNIT, grid_n=17, pad_rel=0.05)
    rep = single_cell_enclosure(EXP_TS, UNIT, MID, db, Q, bounds_estimated=True)
    assert not rep.rigorous


def test_containment_on_polynomial_sample():
    rng = XorShift64Star(555)
    for _ in range(50):
        poly = random_polynomial(rng, 6)
        f = to_bivariate(poly)
        a = rng.uniform(-1.0, 0.1)
        b = a + rng.uniform(0.4, 1.0)
        c = rng.uniform(-1.0, 0.1)
        d = c + rng.uniform(0.4, 1.0)
        r = make_rectangle(a, b, c, d)
        db = estimate_bounds(f, r, grid_n=33, pad_rel=0.25)
        rep = composite_enclosure(f, r, db, 4, 4, Q)
        oracle = integrate_2d(f, r, Q)
        assert rep.enclosure.contains(oracle), f.label


@pytest.mark.parametrize("m,n", [(1, 4097), (4097, 1)])
def test_composite_refuses_grids_above_the_cell_caps(m, n):
    # the library had no cap: 1 x 2^20 cells peaked at 6.6 GB
    with pytest.raises(ValueError, match="at most 4096 cells per axis and 1048576 in all"):
        composite_enclosure(TS, UNIT, derivative_bounds(1, 1), m, n, Q)


def test_compare_bounds_radii():
    rep = compare_bounds(ONE, UNIT, MID, derivative_bounds(0, 1), Lambda(0.5), Q)
    assert rep.widths["sarikaya"] == pytest.approx(1 / 128, abs=1e-15)
    assert rep.widths["qiaoling"] == pytest.approx(1 / 128, abs=1e-15)
    assert rep.widths["t5_verbatim"] == pytest.approx(25 / 2048, abs=1e-15)
    assert rep.widths["corrected"] == pytest.approx(25 / 2048, abs=1e-15)
    assert all(w >= 0 for w in rep.widths.values())


def test_compare_bounds_flags_only_the_stated_rule():
    rep = compare_bounds(ONE, UNIT, MID, derivative_bounds(0, 0), Lambda(0.0), Q)
    assert rep.violated["t5_verbatim"]
    assert not rep.violated["sarikaya"]
    assert not rep.violated["corrected"]
    assert not rep.violated["qiaoling"]
    assert rep.lhs["t5_verbatim"] == pytest.approx(3 / 16, abs=1e-12)


def test_compare_bounds_bilinear_midpoint():
    rep = compare_bounds(TS, UNIT, MID, derivative_bounds(1, 1), Lambda(0.0), Q)
    assert rep.widths["sarikaya"] == 0.0
    assert rep.widths["qiaoling"] == 0.0
    assert rep.widths["corrected"] == 0.0
    assert rep.lhs["corrected"] <= 1e-12
    assert rep.violated["t5_verbatim"]
    assert not rep.violated["corrected"]
