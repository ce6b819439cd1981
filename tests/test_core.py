import math

import numpy as np
import pytest

from ostrocube import (
    BivariateFunction,
    DegenerateDomain,
    DerivativeBound1D,
    Enclosure,
    Interval1D,
    InvalidBounds,
    InvalidConfig,
    MissingMixedPartial,
    PointOutsideDomain,
    QuadConfig,
    derivative_bounds,
    make_point,
    make_rectangle,
)
from ostrocube.core import square, unchecked
from ostrocube.expr import XorShift64Star


def test_make_rectangle_unit_square():
    r = make_rectangle(0, 1, 0, 1)
    assert r.t_axis.lo == 0.0 and r.t_axis.hi == 1.0
    assert r.s_axis.lo == 0.0 and r.s_axis.hi == 1.0
    assert r.area == 1.0


def test_make_rectangle_rejects_degenerate_axis():
    with pytest.raises(DegenerateDomain):
        make_rectangle(1, 1, 0, 1)
    with pytest.raises(DegenerateDomain):
        make_rectangle(2, 1, 0, 1)
    with pytest.raises(DegenerateDomain):
        make_rectangle(0, 1, 5, -5)


def test_make_rectangle_mixed_signs():
    r = make_rectangle(0, 2, -1, 1)
    assert (r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi) == (0, 2, -1, 1)
    assert r.area == 4.0


def test_interval_rejects_nonfinite():
    with pytest.raises(DegenerateDomain):
        Interval1D(float("nan"), 1.0)
    with pytest.raises(DegenerateDomain):
        Interval1D(float("-inf"), 1.0)


def test_make_point_inside_and_outside():
    r = make_rectangle(0, 1, 0, 1)
    pt = make_point(r, 0.5, 0.5)
    assert (pt.x, pt.y) == (0.5, 0.5)
    with pytest.raises(PointOutsideDomain):
        make_point(r, 2, 0.5)


def test_make_point_allows_closed_boundary():
    r = make_rectangle(0, 1, 0, 1)
    corner = make_point(r, 0, 1)
    assert (corner.x, corner.y) == (0.0, 1.0)


def test_derivative_bounds_accessors():
    db = derivative_bounds(0, 1)
    assert db.midpoint == 0.5 and db.halfwidth == 0.5
    assert derivative_bounds(1, 1).halfwidth == 0.0
    with pytest.raises(InvalidBounds):
        derivative_bounds(2, 1)


def test_derivative_bounds_roundtrip_is_exact_to_ulp():
    # midpoint -/+ halfwidth must reproduce the stored bounds; floating
    # point allows at most an ulp of slack on adversarial magnitudes
    rng = XorShift64Star(2024)
    for _ in range(300):
        lo = rng.uniform(-50.0, 50.0)
        hi = lo + rng.uniform(0.0, 80.0)
        db = derivative_bounds(lo, hi)
        scale = 1.0 + abs(lo) + abs(hi)
        assert abs((db.midpoint - db.halfwidth) - lo) <= 4e-16 * scale
        assert abs((db.midpoint + db.halfwidth) - hi) <= 4e-16 * scale


def test_equal_inputs_give_equal_values():
    assert make_rectangle(0, 1, 0, 1) == make_rectangle(0, 1, 0, 1)
    assert derivative_bounds(0, 1) == derivative_bounds(0, 1)


def test_bound_1d_kinds():
    m = DerivativeBound1D.abs_bound(2.0)
    assert m.kind == "abs" and m.magnitude == 2.0 and m.lower == -2.0
    rg = DerivativeBound1D.from_range(0.0, 2.0)
    assert rg.kind == "range"
    with pytest.raises(InvalidBounds):
        DerivativeBound1D.abs_bound(-1.0)
    with pytest.raises(InvalidBounds):
        DerivativeBound1D.from_range(2.0, 1.0)
    with pytest.raises(InvalidBounds):
        rg.magnitude


def test_bivariate_function_capabilities():
    f = BivariateFunction(fn=lambda t, s: t * s)
    assert f.eval(2, 3) == 6.0
    assert not f.has_exact_mixed
    with pytest.raises(MissingMixedPartial):
        f.mixed(0.5, 0.5)
    g = BivariateFunction(fn=lambda t, s: t * s, mixed_fn=lambda t, s: 1.0)
    assert g.has_exact_mixed and g.mixed(0.1, 0.9) == 1.0
    cross = g.fix_t(0.25)
    assert cross.eval(4.0) == 1.0
    assert g.fix_s(0.5).eval(3.0) == 1.5


def test_enclosure_properties():
    e = Enclosure(1.0, 3.0)
    assert e.center == 2.0 and e.width == 2.0
    assert e.contains(1.0) and e.contains(3.0) and not e.contains(3.5)
    with pytest.raises(InvalidBounds):
        Enclosure(2.0, 1.0)


@pytest.mark.parametrize("lo,hi", [(0.0, math.nan), (math.nan, 0.0), (-math.inf, 1.0),
                                   (0.0, math.inf)])
def test_enclosure_rejects_non_finite_endpoints(lo, hi):
    # NaN compares false both ways, so [-inf, nan] used to pass lo <= hi
    with pytest.raises(InvalidBounds, match="finite"):
        Enclosure(lo, hi)


def test_quad_config_validation():
    q = QuadConfig()
    assert q.gl_order == 16 and q.panels == 8
    with pytest.raises(InvalidConfig):
        QuadConfig(gl_order=1)
    with pytest.raises(InvalidConfig):
        QuadConfig(panels=0)
    with pytest.raises(InvalidConfig):
        QuadConfig(abs_tol=0.0)
    fine = QuadConfig(gl_order=64).refined()
    assert fine.gl_order == 64 and fine.panels == 16


def test_interval_midpoint_and_contains():
    iv = Interval1D(-1.0, 3.0)
    assert iv.midpoint == 1.0 and iv.length == 4.0
    assert iv.contains(-1.0) and not iv.contains(3.0 + 1e-9)
    assert iv.contains(3.0 + 1e-9, slop=1e-8)
    assert not math.isnan(iv.midpoint)


def test_square_gives_each_array_entry_the_bits_of_float_pow():
    # numpy's own square (v * v) differs from libm pow in the last bit for
    # some v; the array rules of verify must match their float forms
    values = np.random.default_rng(3).uniform(-2.0, 2.0, 20000)
    assert square(values).tolist() == [v ** 2 for v in values.tolist()]
    assert square(0.3) == 0.3 ** 2


def test_unchecked_holds_columns_that_the_properties_read_per_entry():
    lo, hi = np.array([0.0, -1.0]), np.array([0.5, 2.0])
    column = unchecked(Interval1D, lo=lo, hi=hi)
    assert column.length.tolist() == [Interval1D(0.0, 0.5).length, Interval1D(-1.0, 2.0).length]
    assert column.midpoint.tolist() == [0.25, 0.5]
