"""Three-way audit of the kernel-weighted integration-by-parts identity.

The target quantity is the unambiguous double integral

    V = integral over [a,b]x[c,d] of k_t(t) k_s(s) d2f/dtds,

with the quarter-offset kernels from the kernels module. It is computed
three ways:

- `kernel_weighted_integral`: tensor quadrature per quadrant (the kernels
  are smooth inside each quadrant), the oracle;
- `full_expansion_verbatim`: the catalogued stated boundary expansion,
  kept term for term even where it is wrong;
- `full_expansion_derived`: the expansion re-derived here by 1D
  integration by parts on each kernel branch. On [a, b] with anchor x the
  branch endpoint values give the functional

      L(g) = (3(b-a)/4) g(x) + ((x-a)/4) g(a) + ((b-x)/4) g(b) - integral g

  which annihilates constants, and V = (L_t tensor L_s) f: nine point
  terms on {x,a,b} x {y,c,d}, minus six node/line-integral terms, plus the
  full double integral.

All expansions are arithmetic over shared samples. The full ones read one
`rules.AnchorTerms` set; the stated and derived expansion of each quadrant
read its 3x3 point values too, plus twelve half-line integrals (every node
line over each half of the other axis) and the four quadrant integrals.
An identity report samples f once on the anchor's split grid, whose
reductions are the terms' double integral and the quadrant integrals, and
the exact mixed partial times the kernels once over the same nodes for
the four oracles. quadrature._split_integrals reduces both grids, and
quadrature._axis_lines integrates the half-lines.

The derived form must agree with the oracle (that agreement is the
acceptance gate); the stated form does not. Two distinct defects are
observable: the per-quadrant stated expansions flip the signs of their
far-node terms, and the stated full expansion is not even the sum of the
stated quadrant expansions (`assembly_residue` is the closed-form gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    BivariateFunction,
    DerivativeBounds,
    EvalPoint,
    Interval1D,
    MissingMixedPartial,
    QuadConfig,
    Rectangle,
    make_point,
)
from .kernels import abs_moment, s_kernel, signed_moment, t_kernel
from .quadrature import (
    NonFiniteSample,
    _axis_lines,
    _axis_quadrature,
    _check_finite,
    _split_axis,
    _split_integrals,
    grid_values,
    sample_mixed,
)
from .rules import AnchorTerms, RuleOutcome, anchor_terms

# no longer called here; they stay importable from this module, where
# perfbench/tracing.py counts them
from .quadrature import integrate_1d, integrate_2d  # noqa: F401

__all__ = [
    "Quadrant",
    "IdentityReport",
    "QuadrantComparison",
    "kernel_weighted_integral",
    "quadrant_expansion_verbatim",
    "quadrant_oracle",
    "verbatim_from_terms",
    "full_expansion_verbatim",
    "derived_from_terms",
    "full_expansion_derived",
    "corrected_from_terms",
    "assembly_residue",
    "identity_report",
]


class Quadrant(Enum):
    """The four anchor-split quadrants of the rectangle."""

    LL = "LL"  # [a,x] x [c,y]
    LU = "LU"  # [a,x] x [y,d]
    RL = "RL"  # [x,b] x [c,y]
    RU = "RU"  # [x,b] x [y,d]


def _branches(quad: Quadrant) -> tuple[int, int]:
    """The half of each axis that the quadrant takes: 0 for [a, x] or
    [c, y], the left branches of the kernels; 1 for [x, b] or [y, d]."""
    return int(quad.value[0] == "R"), int(quad.value[1] == "U")


def _quadrant_rect(r: Rectangle, pt: EvalPoint, quad: Quadrant) -> Optional[Rectangle]:
    """The quadrant, or None if an anchor on the boundary gives it a side
    of zero width."""
    bt, bs = _branches(quad)
    t_lo, t_hi = ((r.t_axis.lo, pt.x), (pt.x, r.t_axis.hi))[bt]
    s_lo, s_hi = ((r.s_axis.lo, pt.y), (pt.y, r.s_axis.hi))[bs]
    if t_hi - t_lo <= 0.0 or s_hi - s_lo <= 0.0:
        return None
    return Rectangle(Interval1D(t_lo, t_hi), Interval1D(s_lo, s_hi))


def quadrant_oracle(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, quad: Quadrant, q: QuadConfig
) -> float:
    """Quadrature value of k_t k_s d2f/dtds over one quadrant."""
    sub = _quadrant_rect(r, pt, quad)
    if sub is None:
        return 0.0
    bt, bs = _branches(quad)
    kt = t_kernel(r, pt)
    ks = s_kernel(r, pt)
    t_off = kt.right_offset if bt else kt.left_offset
    s_off = ks.right_offset if bs else ks.left_offset
    tn, tw = _axis_quadrature(sub.t_axis, q)
    sn, sw = _axis_quadrature(sub.s_axis, q)
    T, S = tn[:, None], sn[None, :]
    mixed = sample_mixed(f, T, S)
    _check_finite(mixed, f"mixed partial of {f.label}")
    integrand = (T - t_off) * (S - s_off) * mixed
    return float(tw @ integrand @ sw)


def _quadrant_blocks(r: Rectangle, pt: EvalPoint, q: QuadConfig) -> tuple[dict, list]:
    """The (rows, cols) of each quadrant in a grid on the nodes of r split at
    pt, whose reduction is the value a grid of that quadrant alone gives
    (None for a quadrant of zero width, whose integral is exactly 0.0), and
    each split axis (quadrature._split_axis)."""
    make_point(r, pt.x, pt.y)  # the split nodes cover r only
    axes = [_split_axis(r.t_axis, q, pt.x), _split_axis(r.s_axis, q, pt.y)]
    halves = [(slice(None, lo) if lo else None, slice(lo, None) if hi else None)
              for _, _, (lo, hi) in axes]
    blocks = {}
    for quad in Quadrant:
        bt, bs = _branches(quad)
        rows, cols = halves[0][bt], halves[1][bs]
        blocks[quad] = None if rows is None or cols is None else (rows, cols)
    return blocks, axes


def _per_quadrant(blocks: dict, sums) -> dict:
    """The sums over the quadrants of blocks that have one, in order, keyed
    by quadrant; exactly 0.0 for the others."""
    sums = iter(sums)
    return {quad: 0.0 if block is None else next(sums) for quad, block in blocks.items()}


def _quadrant_oracles(f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig) -> dict:
    """quadrant_oracle of every quadrant, bit for bit, from one grid of the
    mixed partial over the split nodes, times (T - t_off) * (S - s_off) with
    the offsets of each row's and column's half, each quadrant's block of
    it reduced as quadrant_oracle reduces it (quadrature._split_integrals,
    whose failure rule takes the whole grid as one unit)."""
    quadrants, axes = _quadrant_blocks(r, pt, q)
    # the kernel at each node: node - the offset of its half
    factors = [nodes - np.repeat((kernel.left_offset, kernel.right_offset), sizes)
               for (nodes, _, sizes), kernel in zip(axes, (t_kernel(r, pt), s_kernel(r, pt)))]
    blocks = [block for block in quadrants.values() if block is not None]
    return _per_quadrant(quadrants, _split_integrals(f, r, q, pt, blocks, "mixed_fn", factors))


def kernel_weighted_integral(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig
) -> float:
    """The target double integral of the exact mixed partial, split at the
    anchor lines so every quadrature panel sees a smooth integrand;
    MissingMixedPartial if f carries no exact mixed partial."""
    return sum(_quadrant_oracles(f, r, pt, q).values())


def _quadrant_samples(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig
) -> tuple[AnchorTerms, list, list, dict]:
    """What the quadrant expansions at one anchor read, each taken once:
    the anchor's terms, whose values hold every quadrant node; along_t[j][k],
    the integral of f(t, (y, c, d)[j]) over the t-half k ([a, x], then
    [x, b]); along_s[i][k], that of f((x, a, b)[i], s) over the s-half k
    ([c, y], then [y, d]); and the integral over each quadrant. The terms'
    double integral and the quadrants' are reductions of f on the split
    grid, sampled once (quadrature._split_integrals)."""
    quadrants, _ = _quadrant_blocks(r, pt, q)
    blocks = [block for block in quadrants.values() if block is not None]
    double, *sums = _split_integrals(f, r, q, pt, [(slice(None), slice(None)), *blocks])
    return (
        anchor_terms(f, r, pt, q, double=double),
        _axis_lines(f, "s", [pt.y, r.s_axis.lo, r.s_axis.hi], r.t_axis, q, pt.x).tolist(),
        _axis_lines(f, "t", [pt.x, r.t_axis.lo, r.t_axis.hi], r.s_axis, q, pt.y).tolist(),
        _per_quadrant(quadrants, sums),
    )


def _quadrant_expansions(samples: tuple, quad: Quadrant) -> tuple[float, float]:
    """(stated, derived) expansion of one quadrant from its two nodes per
    branch, the anchor and the far endpoint. The stated form gives 9/16 to
    the heavy node H (the anchor on a left branch, the far endpoint on a
    right one) and flips the sign of the light node L's terms:
    (wt*ws/16)[9 f(H,H) - 3 f(H,L) - 3 f(L,H) + f(L,L)] minus two
    node/line terms plus the quadrant integral. The derived form weights
    the anchor 3w/4 and the far endpoint w/4, all signs positive."""
    terms, all_along_t, all_along_s, all_double = samples
    r, pt = terms.rect, terms.point
    bt, bs = _branches(quad)
    wt = (pt.x - r.t_axis.lo, r.t_axis.hi - pt.x)[bt]
    ws = (pt.y - r.s_axis.lo, r.s_axis.hi - pt.y)[bs]
    # positions of (anchor, far endpoint) in the terms' node order
    t_at, s_at = (0, 1 + bt), (0, 1 + bs)
    values = [[terms.values[i][j] for j in s_at] for i in t_at]
    along_t = [all_along_t[j][bt] for j in s_at]
    along_s = [all_along_s[i][bs] for i in t_at]
    double = all_double[quad]
    ht, lt, hs, ls = bt, 1 - bt, bs, 1 - bs  # heavy and light positions
    stated = (
        (wt * ws / 16.0) * (
            9.0 * values[ht][hs] - 3.0 * values[ht][ls] - 3.0 * values[lt][hs] + values[lt][ls]
        )
        - (wt / 4.0) * (3.0 * along_s[ht] - along_s[lt])
        - (ws / 4.0) * (3.0 * along_t[hs] - along_t[ls])
        + double
    )
    derived = _tensor_sum(
        (0.75 * wt, 0.25 * wt), (0.75 * ws, 0.25 * ws), values, along_t, along_s, double
    )
    return stated, derived


def quadrant_expansion_verbatim(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, quad: Quadrant, q: QuadConfig
) -> float:
    """The stated right-hand side for one quadrant, kept term for term; the
    audit reports where it differs from the derived form."""
    return _quadrant_expansions(_quadrant_samples(f, r, pt, q), quad)[0]


def verbatim_from_terms(terms: AnchorTerms) -> float:
    """full_expansion_verbatim at terms.point."""
    r, pt = terms.rect, terms.point
    a, b = r.t_axis.lo, r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    (f_xy, f_xc, f_xd), (f_ay, f_ac, f_ad), (f_by, f_bc, f_bd) = terms.values
    int_ty, int_tc, int_td = terms.along_t
    int_xs, int_as, int_bs = terms.along_s
    kx = 3.0 * (x - a) - (b - x)
    ky = 3.0 * (y - c) - (d - y)
    brace = (
        kx * ky * f_xy
        + (3.0 * (b - x) * f_by - (x - a) * f_ay) * ky
        + (3.0 * (d - y) * f_xd - (y - c) * f_xc) * kx
        + ((y - c) * f_ac - 3.0 * (d - y) * f_ad) * (x - a)
        + (3.0 * (d - y) * f_bd - (y - c) * f_bc) * (b - x)
    )
    lines = (
        kx * int_xs
        + ky * int_ty
        + 3.0 * (b - x) * int_bs
        - (x - a) * int_as
        + 3.0 * (d - y) * int_td
        - (y - c) * int_tc
    )
    return brace / 16.0 - lines / 4.0 + terms.double


def full_expansion_verbatim(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig
) -> float:
    """The stated assembled expansion, un-normalized (no division by the
    area; the t5 rule statement equals this divided by the area, minus its
    derivative-midpoint term)."""
    return verbatim_from_terms(anchor_terms(f, r, pt, q))


def expansion_weights(iv: Interval1D, anchor: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (anchor, lo, hi) and weights (3L/4, (anchor-lo)/4, (hi-anchor)/4)
    of the derived per-axis boundary functional; the weights sum to the
    interval length, so the functional annihilates constants."""
    nodes = (anchor, iv.lo, iv.hi)
    weights = (
        0.75 * iv.length,
        0.25 * (anchor - iv.lo),
        0.25 * (iv.hi - anchor),
    )
    return nodes, weights


def _tensor_sum(t_weights, s_weights, values, along_t, along_s, double: float) -> float:
    """(L_t tensor L_s) f from the weights of each axis's nodes: values[i][j]
    is f at the i-th t node and the j-th s node, along_s[i] the integral of
    the line through the i-th t node and along_t[j] that through the j-th s
    node."""
    points = sum(
        wt * ws * value
        for wt, row in zip(t_weights, values)
        for ws, value in zip(s_weights, row)
    )
    lines_t = sum(wt * line for wt, line in zip(t_weights, along_s))
    lines_s = sum(ws * line for ws, line in zip(s_weights, along_t))
    return points - lines_t - lines_s + double


def derived_from_terms(terms: AnchorTerms) -> float:
    """full_expansion_derived at terms.point; the nodes of
    expansion_weights are the order of the terms' values and lines."""
    _, t_weights = expansion_weights(terms.rect.t_axis, terms.point.x)
    _, s_weights = expansion_weights(terms.rect.s_axis, terms.point.y)
    return _tensor_sum(t_weights, s_weights, terms.values, terms.along_t, terms.along_s,
                       terms.double)


def full_expansion_derived(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig
) -> float:
    """The re-derived expansion, un-normalized: tensor product of the two
    per-axis boundary functionals applied to f. Validated against
    kernel_weighted_integral before anything downstream trusts it."""
    return derived_from_terms(anchor_terms(f, r, pt, q))


def corrected_from_terms(terms: AnchorTerms, db: DerivativeBounds) -> RuleOutcome:
    """The oracle-validated bound |derived - M*S| <= h*A at terms.point,
    un-normalized, with slack 1e-12*(1+A)."""
    r, pt = terms.rect, terms.point
    area_moment = abs_moment(r, pt)
    lhs = abs(derived_from_terms(terms) - db.midpoint * signed_moment(r, pt))
    rhs = db.halfwidth * area_moment
    slack = 1e-12 * (1.0 + area_moment)
    return RuleOutcome(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + slack, slack=slack)


def assembly_residue(f: BivariateFunction, r: Rectangle, pt: EvalPoint) -> float:
    """Closed-form gap (stated full expansion) - (sum of stated quadrant
    expansions): the f(b, c) and f(b, d) coefficients do not survive the
    reassembly, leaving -(b-x)/8 * [3(d-y) f(b,d) - (y-c) f(b,c)]."""
    b = r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    f_bc, f_bd = grid_values(f, np.array([b]), np.array([c, d]))[0].tolist()
    return -(b - x) / 8.0 * (3.0 * (d - y) * f_bd - (y - c) * f_bc)


@dataclass(frozen=True)
class QuadrantComparison:
    verbatim: float
    derived: float
    oracle: float


@dataclass(frozen=True)
class IdentityReport:
    oracle_value: float
    verbatim_value: float
    derived_value: float
    per_quadrant: dict
    max_abs_discrepancy_verbatim: float
    max_abs_discrepancy_derived: float
    status_ok: bool
    tol: float


def identity_report(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig, tol: float = 1e-9
) -> IdentityReport:
    """Oracle, stated and derived values plus per-quadrant comparisons.

    Requires an exact mixed partial. Status is OK iff the derived full
    expansion agrees with the oracle to tol * (1 + |oracle|); the stated
    discrepancy is reported, never corrected. A NonFiniteSample is raised
    if the oracle, an expansion or a quadrant's value is not finite.
    """
    if not f.has_exact_mixed:
        raise MissingMixedPartial(
            f"identity_report needs an exact mixed partial for {f.label!r}"
        )
    samples = _quadrant_samples(f, r, pt, q)
    oracles = _quadrant_oracles(f, r, pt, q)
    per_quadrant = {
        quad: QuadrantComparison(*_quadrant_expansions(samples, quad), oracles[quad])
        for quad in Quadrant
    }
    oracle = sum(c.oracle for c in per_quadrant.values())
    verbatim = verbatim_from_terms(samples[0])
    derived = derived_from_terms(samples[0])
    values = [oracle, verbatim, derived,
              *(v for c in per_quadrant.values() for v in (c.verbatim, c.derived, c.oracle))]
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample(f"the identity of {f.label} is not finite on this rectangle")
    disc_verbatim = abs(verbatim - oracle)
    disc_derived = abs(derived - oracle)
    for comp in per_quadrant.values():
        disc_verbatim = max(disc_verbatim, abs(comp.verbatim - comp.oracle))
        disc_derived = max(disc_derived, abs(comp.derived - comp.oracle))
    status_ok = abs(derived - oracle) <= tol * (1.0 + abs(oracle))
    return IdentityReport(
        oracle_value=oracle,
        verbatim_value=verbatim,
        derived_value=derived,
        per_quadrant=per_quadrant,
        max_abs_discrepancy_verbatim=disc_verbatim,
        max_abs_discrepancy_derived=disc_derived,
        status_ok=status_ok,
        tol=tol,
    )
