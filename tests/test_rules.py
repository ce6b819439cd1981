import pytest

from ostrocube import (
    BivariateFunction,
    DerivativeBound1D,
    Interval1D,
    InvalidBounds,
    Lambda,
    PointOutsideDomain,
    PointOutsideLambdaBox,
    QuadConfig,
    derivative_bounds,
    make_point,
    make_rectangle,
    parse_expression,
    to_bivariate,
    to_univariate,
)
from ostrocube.rules import (
    _t3_boundary,
    _t5_boundary,
    anchor_terms,
    cheng_1d,
    ostrowski_1d,
    qiaoling_functional,
    quarter_rule_anchor_weight,
    quarter_rule_functional,
    sarikaya_functional,
)

Q = QuadConfig()
UNIT = make_rectangle(0, 1, 0, 1)
MID = make_point(UNIT, 0.5, 0.5)

ONE = to_bivariate(parse_expression("1"))
TS = to_bivariate(parse_expression("t*s"))
AFFINE_SLAB = to_bivariate(parse_expression("(1+t)*s"))

SQUARE = to_univariate(parse_expression("t^2"))
LINEAR = to_univariate(parse_expression("t"))
IV = Interval1D(0, 1)


def _values(f):
    """The 3x3 point values of f at MID that the rules' boundary terms read."""
    return anchor_terms(f, UNIT, MID, Q).values


# ---------------------------------------------------------------------------
# t1 / t2
# ---------------------------------------------------------------------------


def test_ostrowski_linear_at_midpoint():
    out = ostrowski_1d(LINEAR, IV, 0.5, DerivativeBound1D.abs_bound(1.0), Q)
    assert out.lhs == pytest.approx(0.0, abs=1e-14)
    assert out.rhs == pytest.approx(0.25, abs=1e-15)
    assert out.satisfied


def test_ostrowski_square_worked_values():
    out = ostrowski_1d(SQUARE, IV, 0.5, DerivativeBound1D.abs_bound(2.0), Q)
    assert out.lhs == pytest.approx(1 / 12, abs=1e-12)
    assert out.rhs == pytest.approx(0.5, abs=1e-15)
    out = ostrowski_1d(SQUARE, IV, 1.0, DerivativeBound1D.abs_bound(2.0), Q)
    assert out.lhs == pytest.approx(2 / 3, abs=1e-12)
    assert out.rhs == pytest.approx(1.0, abs=1e-15)


def test_ostrowski_requires_abs_kind_and_interior_point():
    with pytest.raises(InvalidBounds):
        ostrowski_1d(SQUARE, IV, 0.5, DerivativeBound1D.from_range(0, 2), Q)
    with pytest.raises(PointOutsideDomain):
        ostrowski_1d(SQUARE, IV, 1.5, DerivativeBound1D.abs_bound(2.0), Q)


def test_cheng_linear_equality_case():
    out = cheng_1d(LINEAR, IV, 0.3, DerivativeBound1D.from_range(1, 1), Q)
    assert out.lhs == pytest.approx(0.0, abs=1e-14)
    assert out.rhs == 0.0
    assert out.satisfied


def test_cheng_square_worked_values():
    out = cheng_1d(SQUARE, IV, 0.0, DerivativeBound1D.from_range(0, 2), Q)
    assert out.lhs == pytest.approx(1 / 6, abs=1e-12)
    assert out.rhs == pytest.approx(0.25, abs=1e-15)
    out = cheng_1d(SQUARE, IV, 0.5, DerivativeBound1D.from_range(0, 2), Q)
    assert out.lhs == pytest.approx(1 / 24, abs=1e-12)
    assert out.rhs == pytest.approx(0.125, abs=1e-15)


def test_cheng_requires_range_kind():
    with pytest.raises(InvalidBounds):
        cheng_1d(SQUARE, IV, 0.5, DerivativeBound1D.abs_bound(2.0), Q)


# ---------------------------------------------------------------------------
# t3
# ---------------------------------------------------------------------------


def test_sarikaya_H_values():
    assert _t3_boundary(UNIT, MID, _values(ONE)) == pytest.approx(3.0, abs=1e-14)
    f_t = to_bivariate(parse_expression("t"))
    assert _t3_boundary(UNIT, MID, _values(f_t)) == pytest.approx(1.5, abs=1e-14)
    zero = to_bivariate(parse_expression("0"))
    assert _t3_boundary(UNIT, MID, _values(zero)) == 0.0


def test_sarikaya_annihilates_constants():
    out = sarikaya_functional(ONE, UNIT, MID, derivative_bounds(0, 0), Q)
    assert out.lhs <= 1e-12
    assert out.rhs == 0.0
    assert out.satisfied


def test_sarikaya_bilinear_case():
    out = sarikaya_functional(TS, UNIT, MID, derivative_bounds(1, 1), Q)
    assert out.lhs <= 1e-12
    assert out.satisfied


def test_sarikaya_rhs_value():
    out = sarikaya_functional(ONE, UNIT, MID, derivative_bounds(0, 1), Q)
    assert out.rhs == pytest.approx(1 / 128, abs=1e-15)


# ---------------------------------------------------------------------------
# t4
# ---------------------------------------------------------------------------


def test_qiaoling_constant_annihilation_at_lambda_one():
    out = qiaoling_functional(ONE, UNIT, MID, derivative_bounds(0, 0), Lambda(1.0), Q)
    assert out.lhs <= 1e-12
    assert out.rhs == 0.0


def test_qiaoling_bilinear_midpoint_lambda_zero():
    out = qiaoling_functional(TS, UNIT, MID, derivative_bounds(1, 1), Lambda(0.0), Q)
    assert out.lhs <= 1e-12


def test_qiaoling_rhs_value():
    out = qiaoling_functional(ONE, UNIT, MID, derivative_bounds(0, 1), Lambda(0.5), Q)
    assert out.rhs == pytest.approx(1 / 128, abs=1e-15)


def test_qiaoling_m_term_cancels_bilinear_off_center():
    # away from the midpoint the derivative-midpoint term is what cancels
    # the bilinear part; equality must still be exact
    pt = make_point(UNIT, 0.7, 0.2)
    out = qiaoling_functional(TS, UNIT, pt, derivative_bounds(1, 1), Lambda(0.0), Q)
    assert out.lhs <= 1e-12
    assert out.rhs == 0.0


def test_qiaoling_lambda_box_enforced():
    r = make_rectangle(0, 1, 0, 1)
    edge = make_point(r, 0.1, 0.5)
    with pytest.raises(PointOutsideLambdaBox):
        qiaoling_functional(ONE, r, edge, derivative_bounds(0, 1), Lambda(0.5), Q)
    # the same anchor is fine once the box is wide enough
    out = qiaoling_functional(ONE, r, edge, derivative_bounds(0, 1), Lambda(0.1), Q)
    assert out.satisfied


def test_lambda_validation():
    with pytest.raises(InvalidBounds):
        Lambda(1.5)
    with pytest.raises(InvalidBounds):
        Lambda(-0.1)


# ---------------------------------------------------------------------------
# t5
# ---------------------------------------------------------------------------


def test_quarter_rule_anchor_weight_values():
    assert quarter_rule_anchor_weight(UNIT, MID) == pytest.approx(1.0, abs=1e-15)
    assert quarter_rule_anchor_weight(UNIT, make_point(UNIT, 0, 0)) == pytest.approx(
        1.0, abs=1e-15
    )
    assert quarter_rule_anchor_weight(UNIT, make_point(UNIT, 1, 0)) == pytest.approx(
        -3.0, abs=1e-15
    )


def test_quarter_rule_boundary_term_values():
    assert _t5_boundary(UNIT, MID, _values(ONE)) == pytest.approx(2.0, abs=1e-14)
    assert _t5_boundary(UNIT, MID, _values(TS)) == pytest.approx(9 / 4, abs=1e-14)
    zero = to_bivariate(parse_expression("0"))
    assert _t5_boundary(UNIT, MID, _values(zero)) == 0.0


def test_quarter_rule_constant_failure_is_asserted():
    # the stated form does not annihilate constants; that asymmetry is the
    # documented audit outcome
    out = quarter_rule_functional(ONE, UNIT, MID, derivative_bounds(0, 0), Q)
    assert out.lhs == pytest.approx(3 / 16, abs=1e-12)
    assert out.rhs == 0.0
    assert not out.satisfied


def test_quarter_rule_bilinear_failure_value():
    out = quarter_rule_functional(TS, UNIT, MID, derivative_bounds(1, 1), Q)
    assert out.lhs == pytest.approx(3 / 32, abs=1e-12)
    assert out.rhs == 0.0
    assert not out.satisfied


def test_quarter_rule_rhs_value():
    out = quarter_rule_functional(ONE, UNIT, MID, derivative_bounds(0, 1), Q)
    assert out.rhs == pytest.approx(25 / 2048, abs=1e-15)


# ---------------------------------------------------------------------------
# shared structural properties
# ---------------------------------------------------------------------------


def _scaled(f: BivariateFunction, k: float) -> BivariateFunction:
    return BivariateFunction(
        fn=lambda t, s: k * f.fn(t, s), vectorized=f.vectorized, label=f"{k}*f"
    )


def _scaled_bounds(db, k):
    lo, hi = k * db.lower, k * db.upper
    if k < 0:
        lo, hi = hi, lo
    return derivative_bounds(lo, hi)


@pytest.mark.parametrize("k", [-2.0, 0.5, 3.0])
def test_homogeneity_of_functionals(k):
    r = make_rectangle(0.1, 1.2, -0.4, 0.9)
    pt = make_point(r, 0.7, 0.3)
    db = derivative_bounds(0.6, 1.7)
    f = to_bivariate(parse_expression("t*s + t^2 - s"))
    cases = [
        lambda g, b: sarikaya_functional(g, r, pt, b, Q),
        lambda g, b: qiaoling_functional(g, r, pt, b, Lambda(0.25), Q),
        lambda g, b: quarter_rule_functional(g, r, pt, b, Q),
    ]
    for rule in cases:
        base = rule(f, db)
        scaled = rule(_scaled(f, k), _scaled_bounds(db, k))
        assert scaled.lhs == pytest.approx(abs(k) * base.lhs, rel=1e-12, abs=1e-12)
        assert scaled.rhs == pytest.approx(abs(k) * base.rhs, rel=1e-12, abs=1e-12)


def test_rhs_axis_swap_symmetry():
    r = make_rectangle(0.0, 2.0, -1.0, 0.5)
    swapped = make_rectangle(-1.0, 0.5, 0.0, 2.0)
    pt = make_point(r, 1.3, -0.2)
    pt_swapped = make_point(swapped, -0.2, 1.3)
    db = derivative_bounds(-0.5, 2.0)
    f = to_bivariate(parse_expression("t*s"))
    g = to_bivariate(parse_expression("s*t"))
    pairs = [
        (
            sarikaya_functional(f, r, pt, db, Q),
            sarikaya_functional(g, swapped, pt_swapped, db, Q),
            True,
        ),
        (
            # the stated t5 lhs is not swap-symmetric (part of its defect);
            # only the bound is
            quarter_rule_functional(f, r, pt, db, Q),
            quarter_rule_functional(g, swapped, pt_swapped, db, Q),
            False,
        ),
        (
            qiaoling_functional(f, r, pt, db, Lambda(0.0), Q),
            qiaoling_functional(g, swapped, pt_swapped, db, Lambda(0.0), Q),
            True,
        ),
    ]
    for base, mirrored, lhs_symmetric in pairs:
        assert mirrored.rhs == pytest.approx(base.rhs, rel=1e-12)
        if lhs_symmetric:
            assert mirrored.lhs == pytest.approx(base.lhs, rel=1e-12, abs=1e-12)


def test_rhs_nonnegative_and_linear_in_spread():
    r = make_rectangle(-0.3, 1.1, 0.2, 1.4)
    pt = make_point(r, 0.5, 0.8)
    narrow = derivative_bounds(0.0, 1.0)
    wide = derivative_bounds(0.0, 3.0)
    for rule in (
        lambda b: sarikaya_functional(TS, r, pt, b, Q),
        lambda b: qiaoling_functional(TS, r, pt, b, Lambda(0.3), Q),
        lambda b: quarter_rule_functional(TS, r, pt, b, Q),
    ):
        lo = rule(narrow)
        hi = rule(wide)
        assert lo.rhs >= 0.0
        assert hi.rhs == pytest.approx(3.0 * lo.rhs, rel=1e-12)


def test_outcome_gap_and_slack():
    out = quarter_rule_functional(ONE, UNIT, MID, derivative_bounds(0, 0), Q)
    assert out.gap == pytest.approx(3 / 16, abs=1e-12)
    assert out.slack == pytest.approx(1e-9, rel=1e-6)
    custom = quarter_rule_functional(
        ONE, UNIT, MID, derivative_bounds(0, 0), Q, slack=1.0
    )
    assert custom.satisfied  # slack is configurable
