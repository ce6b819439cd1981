import pytest

from helpers import brute_kernel_moment_1d, brute_kernel_moment_2d, random_rect_point
from ostrocube import (
    AnchorOnBoundary,
    Interval1D,
    Kernel1D,
    OutOfRange,
    abs_moment,
    abs_moment_1d,
    kernel_eval,
    kernel_jump,
    make_point,
    make_rectangle,
    signed_moment,
    signed_moment_1d,
)
from ostrocube.expr import XorShift64Star
from ostrocube.kernels import s_kernel, t_kernel

UNIT = Interval1D(0.0, 1.0)


def test_kernel_eval_direct_substitution():
    k = Kernel1D(UNIT, 0.5)
    assert kernel_eval(k, 0.0) == pytest.approx(-0.125, abs=1e-15)
    assert kernel_eval(k, 0.125) == pytest.approx(0.0, abs=1e-15)
    assert kernel_eval(k, 1.0) == pytest.approx(0.125, abs=1e-15)


def test_kernel_eval_left_branch_at_anchor():
    k = Kernel1D(UNIT, 0.5)
    assert kernel_eval(k, 0.5) == pytest.approx(0.375, abs=1e-15)


def test_kernel_eval_out_of_range():
    k = Kernel1D(UNIT, 0.5)
    with pytest.raises(OutOfRange):
        kernel_eval(k, 1.5)
    with pytest.raises(OutOfRange):
        Kernel1D(UNIT, 2.0)


def test_kernel_piecewise_slope_is_one():
    k = Kernel1D(Interval1D(-0.5, 2.0), 0.75)
    h = 1e-4
    for t in (-0.3, 0.2, 0.6, 1.0, 1.5, 1.9):
        slope = (kernel_eval(k, t + h) - kernel_eval(k, t - h)) / (2 * h)
        assert slope == pytest.approx(1.0, abs=1e-12)


def test_kernel_jump_values():
    assert kernel_jump(Kernel1D(UNIT, 0.5)) == pytest.approx((0.375, -0.375))
    assert kernel_jump(Kernel1D(UNIT, 0.25)) == pytest.approx((0.1875, -0.5625))
    assert kernel_jump(Kernel1D(Interval1D(0, 2), 1.0)) == pytest.approx((0.75, -0.75))


def test_kernel_jump_matches_one_sided_limits():
    k = Kernel1D(UNIT, 0.5)
    left, right = kernel_jump(k)
    eps = 1e-9
    assert kernel_eval(k, 0.5) == pytest.approx(left, abs=1e-12)
    assert kernel_eval(k, 0.5 + eps) == pytest.approx(right, abs=1e-8)


def test_kernel_jump_rejects_boundary_anchor():
    with pytest.raises(AnchorOnBoundary):
        kernel_jump(Kernel1D(UNIT, 0.0))
    with pytest.raises(AnchorOnBoundary):
        kernel_jump(Kernel1D(UNIT, 1.0))


def test_signed_moment_1d_values():
    assert signed_moment_1d(Kernel1D(UNIT, 0.5)) == 0.0
    assert signed_moment_1d(Kernel1D(UNIT, 1.0)) == pytest.approx(0.25, abs=1e-15)
    assert signed_moment_1d(Kernel1D(UNIT, 0.0)) == pytest.approx(-0.25, abs=1e-15)


def test_abs_moment_1d_values():
    assert abs_moment_1d(Kernel1D(UNIT, 0.5)) == pytest.approx(5 / 32, abs=1e-15)
    assert abs_moment_1d(Kernel1D(UNIT, 1.0)) == pytest.approx(5 / 16, abs=1e-15)
    # mirror symmetry
    assert abs_moment_1d(Kernel1D(UNIT, 0.0)) == abs_moment_1d(Kernel1D(UNIT, 1.0))


def test_moments_1d_against_trapezoid_oracle():
    cases = [(0.0, 1.0, 0.5), (0.0, 1.0, 1.0), (0.0, 1.0, 0.0), (-2.0, 1.5, 0.3)]
    for lo, hi, anchor in cases:
        k = Kernel1D(Interval1D(lo, hi), anchor)
        brute_signed = brute_kernel_moment_1d(lo, hi, anchor, absolute=False)
        brute_abs = brute_kernel_moment_1d(lo, hi, anchor, absolute=True)
        assert signed_moment_1d(k) == pytest.approx(brute_signed, abs=1e-12)
        assert abs_moment_1d(k) == pytest.approx(brute_abs, abs=1e-12)


def test_signed_moment_2d_values():
    r = make_rectangle(0, 1, 0, 1)
    assert signed_moment(r, make_point(r, 0.5, 0.5)) == 0.0
    assert signed_moment(r, make_point(r, 1, 1)) == pytest.approx(1 / 16, abs=1e-15)
    r2 = make_rectangle(0, 2, 0, 1)
    assert signed_moment(r2, make_point(r2, 2, 1)) == pytest.approx(0.25, abs=1e-15)


def test_abs_moment_2d_values():
    r = make_rectangle(0, 1, 0, 1)
    assert abs_moment(r, make_point(r, 0.5, 0.5)) == pytest.approx(
        25 / 1024, abs=1e-15
    )
    assert abs_moment(r, make_point(r, 1, 1)) == pytest.approx(25 / 256, abs=1e-15)


def test_abs_moment_grid_oracle_midpoint():
    got = brute_kernel_moment_2d(0, 1, 0, 1, 0.5, 0.5, absolute=True, per_segment=200)
    assert got == pytest.approx(25 / 1024, abs=1e-12)


def test_product_law_and_ordering():
    rng = XorShift64Star(5150)
    for _ in range(60):
        (a, b, c, d), (x, y) = random_rect_point(rng, span=3.0, min_width=0.1)
        r = make_rectangle(a, b, c, d)
        pt = make_point(r, x, y)
        kt, ks = t_kernel(r, pt), s_kernel(r, pt)
        prod_signed = signed_moment_1d(kt) * signed_moment_1d(ks)
        prod_abs = abs_moment_1d(kt) * abs_moment_1d(ks)
        assert abs(signed_moment(r, pt) - prod_signed) <= 1e-12 * (1 + abs(prod_signed))
        assert abs(abs_moment(r, pt) - prod_abs) <= 1e-12 * (1 + abs(prod_abs))
        assert abs_moment(r, pt) >= abs(signed_moment(r, pt))


def test_moments_2d_against_brute_force():
    rng = XorShift64Star(99)
    for _ in range(40):
        (a, b, c, d), (x, y) = random_rect_point(rng, span=3.0, min_width=0.1)
        r = make_rectangle(a, b, c, d)
        pt = make_point(r, x, y)
        brute_signed = brute_kernel_moment_2d(a, b, c, d, x, y, absolute=False)
        brute_abs = brute_kernel_moment_2d(a, b, c, d, x, y, absolute=True)
        assert abs(signed_moment(r, pt) - brute_signed) <= 1e-8 * (1 + abs(brute_signed))
        assert abs(abs_moment(r, pt) - brute_abs) <= 1e-8 * (1 + abs(brute_abs))
