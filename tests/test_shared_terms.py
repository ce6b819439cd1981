"""The shared-sample engine against the per-rule reference bodies.

Every two-variable rule now reads one `AnchorTerms` sample set per anchor,
the quadrant expansions read it plus shared half-lines and quadrant
integrals, and `differentiate` simplifies as it builds. All must give the
same bits as the code they replaced, which `helpers` keeps: the rules and
quadrant expansions evaluating their own points, lines and double
integrals, and the raw derivative followed by `simplify`.
"""

import random

import pytest

from helpers import (
    random_ast,
    reference_corrected,
    reference_diff,
    reference_full_expansion_derived,
    reference_full_expansion_verbatim,
    reference_identity_report,
    reference_qiaoling,
    reference_quarter_rule,
    reference_sarikaya,
    tree_key,
)
from ostrocube.cli import _random_interval
from ostrocube.core import DerivativeBounds, QuadConfig, make_point, make_rectangle
from ostrocube.expr import (
    Const,
    UnsupportedDerivative,
    XorShift64Star,
    derive_seed,
    differentiate,
    parse_expression,
    random_polynomial,
    random_polynomial_1d,
    simplify,
    to_bivariate,
    to_string,
)
from ostrocube.identity import (
    Quadrant,
    corrected_from_terms,
    derived_from_terms,
    identity_report,
    quadrant_expansion_derived,
    quadrant_expansion_verbatim,
    verbatim_from_terms,
)
from ostrocube.rules import (
    Lambda,
    anchor_terms,
    qiaoling_from_terms,
    quarter_rule_from_terms,
    sarikaya_from_terms,
)

VERIFY_CFG = QuadConfig(gl_order=16, panels=1, abs_tol=1e-14)
LAMBDAS = (0.0, 0.25, 0.5, 1.0)


def _trial(k: int):
    """Seeded polynomial, rectangle, anchors p and q, lambda and bounds.

    Every fourth polynomial depends on t only and every fourth on s only;
    degree 0 (every seventh) makes it constant. Every fifth p sits on a
    corner of the rectangle."""
    rng = XorShift64Star(derive_seed(2026, k))
    degree = k % 7
    kind = k % 4
    if kind == 1:
        poly = random_polynomial_1d(rng, degree, var="t")
    elif kind == 2:
        poly = random_polynomial_1d(rng, degree, var="s")
    else:
        poly = random_polynomial(rng, degree)
    a, b = _random_interval(rng)
    c, d = _random_interval(rng)
    r = make_rectangle(a, b, c, d)
    lam = LAMBDAS[k % len(LAMBDAS)]
    p = (a, d) if k % 5 == 0 else (rng.uniform(a, b), rng.uniform(c, d))
    shrink_t, shrink_s = 0.5 * lam * (b - a), 0.5 * lam * (d - c)
    q = (rng.uniform(a + shrink_t, b - shrink_t), rng.uniform(c + shrink_s, d - shrink_s))
    lower = rng.uniform(-2.0, 1.0)
    db = DerivativeBounds(lower, lower + rng.uniform(0.0, 3.0))
    return poly, r, make_point(r, *p), make_point(r, *q), lam, db


def test_rules_from_shared_terms_match_reference_bodies():
    one_variable = constant = 0
    for k in range(3000):
        poly, r, p, q, lam, db = _trial(k)
        text = to_string(poly)
        one_variable += ("t" in text) != ("s" in text)
        constant += "t" not in text and "s" not in text
        f = to_bivariate(poly)
        at_p, at_q = anchor_terms(f, r, [p, q], VERIFY_CFG)

        out = sarikaya_from_terms(at_p, db)
        assert (out.lhs, out.rhs) == reference_sarikaya(f, r, p, db, VERIFY_CFG), k
        out = qiaoling_from_terms(at_q, db, Lambda(lam))
        assert (out.lhs, out.rhs) == reference_qiaoling(f, r, q, db, lam, VERIFY_CFG), k
        out = quarter_rule_from_terms(at_p, db)
        assert (out.lhs, out.rhs) == reference_quarter_rule(f, r, p, db, VERIFY_CFG), k
        out = corrected_from_terms(at_p, db)
        assert (out.lhs, out.rhs) == reference_corrected(f, r, p, db, VERIFY_CFG), k
        assert derived_from_terms(at_p) == reference_full_expansion_derived(f, r, p, VERIFY_CFG)
        assert verbatim_from_terms(at_q) == reference_full_expansion_verbatim(f, r, q, VERIFY_CFG)
    assert one_variable > 1000
    assert constant > 300


def _bits(value):
    """A report field with every float as its hex string, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {k: _bits(getattr(value, k)) for k in value.__dataclass_fields__}
    return value


_NAMED = ("1", "t", "s^2", "cos(t)", "exp(t*s) + sin(3*t)*cos(s)", "log(2+t+s)*t",
          "sqrt(2+t)*exp(-s)", "t^3*s - 2*s^2*t")


def _identity_case(k: int):
    """Integrand, rectangle, anchor and configuration of case k: odd k take
    a seeded polynomial, even k a named integrand; anchors rotate through
    the interior, an edge of each axis and two corners; every eleventh case
    uses the default configuration, the rest one panel per segment. 11 is
    odd and prime to 6, so the default configuration meets both kinds of
    integrand and every kind of anchor."""
    rng = XorShift64Star(derive_seed(4096, k))
    if k % 2:
        f = to_bivariate(random_polynomial(rng, k % 7))
    else:
        f = to_bivariate(parse_expression(_NAMED[k // 2 % len(_NAMED)]))
    a, b = _random_interval(rng)
    c, d = _random_interval(rng)
    x, y = rng.uniform(a, b), rng.uniform(c, d)
    x, y = ((x, y), (x, y), (a, y), (x, d), (b, c), (a, d))[k % 6]
    r = make_rectangle(a, b, c, d)
    q = QuadConfig() if k % 11 == 0 else QuadConfig(panels=1)
    return f, r, make_point(r, x, y), q


def test_quadrant_expansions_from_shared_samples_match_reference_bodies():
    for k in range(1000):
        f, r, pt, q = _identity_case(k)
        ref = reference_identity_report(f, r, pt, q)
        assert _bits(identity_report(f, r, pt, q)) == _bits(ref), (k, f.label)
        quad = list(Quadrant)[k % 4]
        got = quadrant_expansion_verbatim(f, r, pt, quad, q)
        assert got.hex() == ref.per_quadrant[quad].verbatim.hex(), (k, f.label)
        got = quadrant_expansion_derived(f, r, pt, quad, q)
        assert got.hex() == ref.per_quadrant[quad].derived.hex(), (k, f.label)


def test_identity_cases_cover_boundary_anchors_and_both_configurations():
    cases = [_identity_case(k) for k in range(66)]
    on_t_edge = sum(pt.x in (r.t_axis.lo, r.t_axis.hi) for _, r, pt, _ in cases)
    corners = sum(pt.x in (r.t_axis.lo, r.t_axis.hi) and pt.y in (r.s_axis.lo, r.s_axis.hi)
                  for _, r, pt, _ in cases)
    assert on_t_edge >= 25 and corners >= 20
    assert {q.panels for *_, q in cases} == {1, 8}
    default = [(r, pt) for _, r, pt, q in cases if q.panels == 8]
    assert any(pt.x in (r.t_axis.lo, r.t_axis.hi) for r, pt in default)


def test_anchor_terms_of_several_anchors_equal_one_at_a_time():
    f = to_bivariate(parse_expression("exp(t*s) + sin(3*t) * cos(s)"))
    r = make_rectangle(-0.4, 0.9, 0.1, 1.3)
    anchors = [make_point(r, 0.2, 0.7), make_point(r, -0.4, 1.3), make_point(r, 0.5, 0.5)]
    together = anchor_terms(f, r, anchors, QuadConfig())
    assert together == [anchor_terms(f, r, [pt], QuadConfig())[0] for pt in anchors]
    assert together[1].along_s[0] == together[1].along_s[1]  # x == a


_SINGULAR = ("sqrt(t)+sqrt(s)", "t*sqrt(t)*s", "log(t-1)", "log(t+1)+sqrt(s)",
             "sin(1/t)*s", "exp(t)^s", "(1+t)/(2+s)", "0/t", "0/0*t", "-0*t/s")


def _expressions():
    for k in range(150):
        poly = random_polynomial(XorShift64Star(derive_seed(77, k)), k % 7)
        yield poly
        yield parse_expression(to_string(poly))
    rnd = random.Random(5)
    for _ in range(300):
        yield random_ast(rnd, 4)
    for text in _SINGULAR:
        yield parse_expression(text)


def test_one_pass_derivative_equals_simplified_raw_derivative():
    for e in _expressions():
        for var in ("t", "s"):
            first = differentiate(e, var)
            assert tree_key(first) == tree_key(simplify(reference_diff(e, var))), to_string(e)
            other = "s" if var == "t" else "t"
            mixed = differentiate(first, other)
            assert tree_key(mixed) == tree_key(simplify(reference_diff(first, other)))


def test_one_pass_derivative_raises_where_the_raw_one_does():
    e = parse_expression("t^s + sin(t)")
    with pytest.raises(UnsupportedDerivative):
        reference_diff(e, "t")
    with pytest.raises(UnsupportedDerivative):
        differentiate(e, "t")


def test_tree_key_tells_signed_zeros_apart():
    assert Const(-0.0) == Const(0.0)
    assert tree_key(Const(-0.0)) != tree_key(Const(0.0))
