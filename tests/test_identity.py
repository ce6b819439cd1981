import pytest

from helpers import simpson_kernel_weighted
from ostrocube import (
    BivariateFunction,
    MissingMixedPartial,
    QuadConfig,
    Quadrant,
    full_expansion_derived,
    full_expansion_verbatim,
    identity_report,
    kernel_weighted_integral,
    make_point,
    make_rectangle,
    parse_expression,
    quadrant_expansion_verbatim,
    signed_moment,
    to_bivariate,
)
from ostrocube.expr import XorShift64Star, random_polynomial
from ostrocube.identity import assembly_residue, quadrant_oracle
from ostrocube.kernels import abs_moment
from ostrocube.quadrature import estimate_bounds

Q = QuadConfig(gl_order=16, panels=1)
UNIT = make_rectangle(0, 1, 0, 1)
MID = make_point(UNIT, 0.5, 0.5)

ONE = to_bivariate(parse_expression("1"))
TS = to_bivariate(parse_expression("t*s"))
AFFINE_SLAB = to_bivariate(parse_expression("(1+t)*s"))
CORNER = make_point(UNIT, 1.0, 1.0)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_kernel_weighted_bilinear_reduces_to_signed_moment():
    assert kernel_weighted_integral(TS, UNIT, MID, Q) == pytest.approx(0.0, abs=1e-14)
    got = kernel_weighted_integral(TS, UNIT, CORNER, Q)
    assert got == pytest.approx(1 / 16, abs=1e-14)
    assert got == pytest.approx(signed_moment(UNIT, CORNER), abs=1e-14)


def test_kernel_weighted_quartic_against_simpson_grid():
    f = to_bivariate(parse_expression("t^2*s^2"))
    got = kernel_weighted_integral(f, UNIT, MID, Q)
    brute = simpson_kernel_weighted(
        lambda T, S: 4.0 * T * S, 0, 1, 0, 1, 0.5, 0.5, intervals=400
    )
    assert got == pytest.approx(brute, abs=1e-12)
    assert got == pytest.approx(1 / 2304, abs=1e-14)  # 4 * (-1/96)^2


def test_kernel_weighted_fd_fallback_and_refusal():
    # there is no finite-difference fallback: without mixed_fn, no oracle
    raw = BivariateFunction(fn=lambda t, s: t * s, vectorized=False)
    with pytest.raises(MissingMixedPartial):
        kernel_weighted_integral(raw, UNIT, CORNER, Q)


# ---------------------------------------------------------------------------
# stated quadrant expansions
# ---------------------------------------------------------------------------


def test_quadrant_verbatim_zero_function():
    zero = to_bivariate(parse_expression("0"))
    for quad in Quadrant:
        assert quadrant_expansion_verbatim(zero, UNIT, MID, quad, Q) == 0.0


def test_quadrant_verbatim_sign_defect_on_affine_slab():
    # the stated LL expansion evaluates to -1/16 while the true value is +1/16
    got = quadrant_expansion_verbatim(AFFINE_SLAB, UNIT, CORNER, Quadrant.LL, Q)
    assert got == pytest.approx(-1 / 16, abs=1e-12)
    oracle = quadrant_oracle(AFFINE_SLAB, UNIT, CORNER, Quadrant.LL, Q)
    assert oracle == pytest.approx(1 / 16, abs=1e-12)
    derived = identity_report(AFFINE_SLAB, UNIT, CORNER, Q).per_quadrant[Quadrant.LL].derived
    assert derived == pytest.approx(1 / 16, abs=1e-12)


def test_quadrant_verbatim_masked_defect_on_bilinear():
    # terms vanishing on the t=0 and s=0 edges mask the sign defect
    got = quadrant_expansion_verbatim(TS, UNIT, CORNER, Quadrant.LL, Q)
    assert got == pytest.approx(1 / 16, abs=1e-12)
    assert got == pytest.approx(
        quadrant_oracle(TS, UNIT, CORNER, Quadrant.LL, Q), abs=1e-12
    )


# ---------------------------------------------------------------------------
# full expansions
# ---------------------------------------------------------------------------


def test_full_verbatim_constant_residue():
    assert full_expansion_verbatim(ONE, UNIT, MID, Q) == pytest.approx(
        3 / 16, abs=1e-12
    )
    zero = to_bivariate(parse_expression("0"))
    assert full_expansion_verbatim(zero, UNIT, MID, Q) == 0.0
    assert full_expansion_verbatim(TS, UNIT, MID, Q) == pytest.approx(
        -3 / 32, abs=1e-12
    )


def test_full_derived_annihilates_constants_anywhere():
    for x, y in [(0.5, 0.5), (0.0, 1.0), (0.25, 0.75), (1.0, 1.0)]:
        pt = make_point(UNIT, x, y)
        assert full_expansion_derived(ONE, UNIT, pt, Q) == pytest.approx(
            0.0, abs=1e-14
        )


def test_full_derived_fixture_values():
    assert full_expansion_derived(TS, UNIT, MID, Q) == pytest.approx(0.0, abs=1e-14)
    assert full_expansion_derived(AFFINE_SLAB, UNIT, CORNER, Q) == pytest.approx(
        1 / 16, abs=1e-12
    )


def test_assembly_consistency_with_residue():
    # stated full expansion == sum of stated quadrant expansions + residue
    rng = XorShift64Star(314)
    functions = [ONE, TS, AFFINE_SLAB] + [
        to_bivariate(random_polynomial(rng, 5)) for _ in range(10)
    ]
    rects_points = [
        (UNIT, (0.5, 0.5)),
        (UNIT, (1.0, 1.0)),
        (UNIT, (0.3, 0.8)),
        (make_rectangle(-0.5, 1.0, 0.2, 0.9), (0.25, 0.6)),
    ]
    for f in functions:
        for r, (x, y) in rects_points:
            pt = make_point(r, x, y)
            full = full_expansion_verbatim(f, r, pt, Q)
            quadrant_sum = sum(
                quadrant_expansion_verbatim(f, r, pt, quad, Q) for quad in Quadrant
            )
            residue = assembly_residue(f, r, pt)
            assert abs(full - (quadrant_sum + residue)) <= 1e-12 * (1 + abs(full))


def test_derived_equals_quadrant_sum():
    rng = XorShift64Star(777)
    for _ in range(10):
        f = to_bivariate(random_polynomial(rng, 5))
        r = make_rectangle(-0.4, 0.8, -0.1, 1.0)
        pt = make_point(r, 0.3, 0.55)
        full = full_expansion_derived(f, r, pt, Q)
        per_quadrant = identity_report(f, r, pt, Q).per_quadrant
        parts = sum(per_quadrant[quad].derived for quad in Quadrant)
        assert abs(full - parts) <= 1e-12 * (1 + abs(full))


def test_bilinearity_of_all_three_computations():
    rng = XorShift64Star(2718)
    r = make_rectangle(-0.2, 0.9, 0.1, 1.1)
    pt = make_point(r, 0.4, 0.7)
    for _ in range(5):
        pa = random_polynomial(rng, 4)
        pb = random_polynomial(rng, 4)
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        fa, fb = to_bivariate(pa), to_bivariate(pb)
        combo = BivariateFunction(
            fn=lambda t, s: alpha * fa.fn(t, s) + beta * fb.fn(t, s),
            mixed_fn=lambda t, s: alpha * fa.mixed_fn(t, s) + beta * fb.mixed_fn(t, s),
            vectorized=True,
        )
        for compute in (
            full_expansion_verbatim,
            full_expansion_derived,
            kernel_weighted_integral,
        ):
            direct = compute(combo, r, pt, Q)
            split = alpha * compute(fa, r, pt, Q) + beta * compute(fb, r, pt, Q)
            assert abs(direct - split) <= 1e-12 * (1 + abs(direct))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_identity_report_bilinear():
    rep = identity_report(TS, UNIT, MID, Q)
    assert rep.oracle_value == pytest.approx(0.0, abs=1e-14)
    assert rep.derived_value == pytest.approx(0.0, abs=1e-14)
    assert rep.verbatim_value == pytest.approx(-3 / 32, abs=1e-12)
    assert rep.max_abs_discrepancy_verbatim == pytest.approx(3 / 32, abs=1e-12)
    assert rep.max_abs_discrepancy_derived <= 1e-12
    assert rep.status_ok


def test_identity_report_constant():
    rep = identity_report(ONE, UNIT, MID, Q)
    assert rep.oracle_value == pytest.approx(0.0, abs=1e-14)
    assert rep.derived_value == pytest.approx(0.0, abs=1e-14)
    assert rep.verbatim_value == pytest.approx(3 / 16, abs=1e-12)
    assert rep.status_ok


def test_identity_report_random_poly_seed7():
    f = to_bivariate(random_polynomial(XorShift64Star(7), 4))
    rep = identity_report(f, UNIT, make_point(UNIT, 0.35, 0.6), Q)
    assert rep.status_ok
    assert abs(rep.derived_value - rep.oracle_value) <= 1e-9 * (
        1 + abs(rep.oracle_value)
    )
    assert set(rep.per_quadrant) == set(Quadrant)


def test_identity_report_requires_exact_mixed():
    raw = BivariateFunction(fn=lambda t, s: t * s)
    with pytest.raises(MissingMixedPartial):
        identity_report(raw, UNIT, MID, Q)


def test_derived_matches_oracle_on_polynomial_sample():
    rng = XorShift64Star(1001)
    for k in range(60):
        f = to_bivariate(random_polynomial(rng, 6))
        a = rng.uniform(-1.0, 0.0)
        b = a + rng.uniform(0.5, 1.0)
        c = rng.uniform(-1.0, 0.0)
        d = c + rng.uniform(0.5, 1.0)
        r = make_rectangle(a, b, c, d)
        pt = make_point(r, rng.uniform(a, b), rng.uniform(c, d))
        oracle = kernel_weighted_integral(f, r, pt, Q)
        derived = full_expansion_derived(f, r, pt, Q)
        assert abs(derived - oracle) <= 1e-9 * (1 + abs(oracle)), f.label


def test_bound_chain_on_corpus_sample():
    # |derived - M*S| <= h*A with sampled padded bounds
    rng = XorShift64Star(9090)
    for _ in range(40):
        f = to_bivariate(random_polynomial(rng, 6))
        r = make_rectangle(-0.6, 0.5, -0.3, 0.8)
        pt = make_point(r, rng.uniform(-0.6, 0.5), rng.uniform(-0.3, 0.8))
        db = estimate_bounds(f, r, grid_n=33, pad_rel=0.25)
        derived = full_expansion_derived(f, r, pt, Q)
        lhs = abs(derived - db.midpoint * signed_moment(r, pt))
        area_moment = abs_moment(r, pt)
        assert lhs <= db.halfwidth * area_moment + 1e-12 * (1 + area_moment)


def test_quarter_rule_statement_matches_stated_expansion():
    # the t5 lhs equals |stated expansion - M*S| normalized by the area
    from ostrocube.rules import quarter_rule_functional
    from ostrocube import derivative_bounds

    r = make_rectangle(-0.5, 1.5, 0.25, 1.25)
    pt = make_point(r, 0.8, 0.5)
    db = derivative_bounds(-1.0, 2.5)
    f = to_bivariate(parse_expression("t^2*s + s^2 - 0.5*t"))
    out = quarter_rule_functional(f, r, pt, db, Q)
    stated = full_expansion_verbatim(f, r, pt, Q)
    expected = abs(stated - db.midpoint * signed_moment(r, pt)) / r.area
    assert out.lhs == pytest.approx(expected, rel=1e-12, abs=1e-12)
