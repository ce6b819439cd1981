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

Both full expansions are arithmetic over one `rules.AnchorTerms` sample
set (`verbatim_from_terms`, `derived_from_terms`), so an identity report
evaluates the point values, six lines and split double integral of its
anchor once for the two of them.

The derived form must agree with the oracle (that agreement is the
acceptance gate); the stated form does not. Two distinct defects are
observable: the per-quadrant stated expansions flip the signs of their
far-node terms, and the stated full expansion is not even the sum of the
stated quadrant expansions (`assembly_residue` is the closed-form gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BivariateFunction,
    EvalPoint,
    Interval1D,
    MissingMixedPartial,
    QuadConfig,
    Rectangle,
)
from .kernels import t_kernel, s_kernel
from .quadrature import (
    _axis_quadrature,
    _check_finite,
    integrate_1d,
    integrate_2d,
    sample_mixed,
)
from .rules import AnchorTerms, anchor_terms

__all__ = [
    "Quadrant",
    "IdentityReport",
    "QuadrantComparison",
    "kernel_weighted_integral",
    "quadrant_expansion_verbatim",
    "quadrant_expansion_derived",
    "quadrant_oracle",
    "verbatim_from_terms",
    "full_expansion_verbatim",
    "derived_from_terms",
    "full_expansion_derived",
    "assembly_residue",
    "identity_report",
]


class Quadrant(Enum):
    """The four anchor-split quadrants of the rectangle."""

    LL = "LL"  # [a,x] x [c,y]
    LU = "LU"  # [a,x] x [y,d]
    RL = "RL"  # [x,b] x [c,y]
    RU = "RU"  # [x,b] x [y,d]


@dataclass(frozen=True)
class _Half:
    """One kernel branch: [lo, hi] with the anchor on one end."""

    lo: float
    hi: float
    anchor_node: float
    end_node: float
    is_left: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def heavy_node(self) -> float:
        # the node that receives the 9/16 coefficient in the stated form
        return self.anchor_node if self.is_left else self.end_node

    @property
    def light_node(self) -> float:
        return self.end_node if self.is_left else self.anchor_node


def _halves(iv: Interval1D, anchor: float) -> tuple[_Half, _Half]:
    left = _Half(iv.lo, anchor, anchor, iv.lo, True)
    right = _Half(anchor, iv.hi, anchor, iv.hi, False)
    return left, right


def _quadrant_halves(r: Rectangle, pt: EvalPoint, quad: Quadrant) -> tuple[_Half, _Half]:
    t_left, t_right = _halves(r.t_axis, pt.x)
    s_left, s_right = _halves(r.s_axis, pt.y)
    t_half = t_left if quad in (Quadrant.LL, Quadrant.LU) else t_right
    s_half = s_left if quad in (Quadrant.LL, Quadrant.RL) else s_right
    return t_half, s_half


def _line_integral(g, lo: float, hi: float, q: QuadConfig) -> float:
    if hi <= lo:
        return 0.0
    return integrate_1d(g, Interval1D(lo, hi), q)


def _double_integral(
    f: BivariateFunction, t_half: _Half, s_half: _Half, q: QuadConfig
) -> float:
    if t_half.width <= 0.0 or s_half.width <= 0.0:
        return 0.0
    sub = Rectangle(Interval1D(t_half.lo, t_half.hi), Interval1D(s_half.lo, s_half.hi))
    return integrate_2d(f, sub, q)


def quadrant_oracle(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    quad: Quadrant,
    q: QuadConfig,
    fd_fallback: bool = True,
) -> float:
    """Quadrature value of k_t k_s d2f/dtds over one quadrant."""
    t_half, s_half = _quadrant_halves(r, pt, quad)
    if t_half.width <= 0.0 or s_half.width <= 0.0:
        return 0.0
    kt = t_kernel(r, pt)
    ks = s_kernel(r, pt)
    t_off = kt.left_offset if t_half.is_left else kt.right_offset
    s_off = ks.left_offset if s_half.is_left else ks.right_offset
    tn, tw = _axis_quadrature(Interval1D(t_half.lo, t_half.hi), q)
    sn, sw = _axis_quadrature(Interval1D(s_half.lo, s_half.hi), q)
    T, S = np.meshgrid(tn, sn, indexing="ij")
    mixed = sample_mixed(f, T, S, r, fd_fallback=fd_fallback)
    _check_finite(mixed, f"mixed partial of {f.label}")
    integrand = (T - t_off) * (S - s_off) * mixed
    return float(tw @ integrand @ sw)


def kernel_weighted_integral(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    q: QuadConfig,
    fd_fallback: bool = True,
) -> float:
    """The target double integral, split at the anchor lines so every
    quadrature panel sees a smooth integrand. Uses the exact mixed partial
    when the function carries one, else the finite-difference stencil
    (non-rigorous) unless the fallback is disabled."""
    if not f.has_exact_mixed and not fd_fallback:
        raise MissingMixedPartial(
            f"function {f.label!r} has no exact mixed partial and the "
            "finite-difference fallback is disabled"
        )
    return sum(
        quadrant_oracle(f, r, pt, quad, q, fd_fallback=fd_fallback)
        for quad in Quadrant
    )


def quadrant_expansion_verbatim(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    quad: Quadrant,
    q: QuadConfig,
) -> float:
    """The stated right-hand side for one quadrant, kept term for term.

    Shape: (wt*ws/16)[9 f(H,H) - 3 f(H,L) - 3 f(L,H) + f(L,L)] minus the
    two stated node/line terms plus the quadrant double integral, where H
    and L are the heavy and light nodes of each branch. The derived form
    (all signs positive, heavy node always the anchor) differs; the audit
    reports the mismatch.
    """
    t_half, s_half = _quadrant_halves(r, pt, quad)
    wt, ws = t_half.width, s_half.width
    ht, lt = t_half.heavy_node, t_half.light_node
    hs, ls = s_half.heavy_node, s_half.light_node
    point_block = (wt * ws / 16.0) * (
        9.0 * f.eval(ht, hs) - 3.0 * f.eval(ht, ls) - 3.0 * f.eval(lt, hs) + f.eval(lt, ls)
    )
    line_s = (wt / 4.0) * (
        3.0 * _line_integral(f.fix_t(ht), s_half.lo, s_half.hi, q)
        - _line_integral(f.fix_t(lt), s_half.lo, s_half.hi, q)
    )
    line_t = (ws / 4.0) * (
        3.0 * _line_integral(f.fix_s(hs), t_half.lo, t_half.hi, q)
        - _line_integral(f.fix_s(ls), t_half.lo, t_half.hi, q)
    )
    dbl = _double_integral(f, t_half, s_half, q)
    return point_block - line_s - line_t + dbl


def quadrant_expansion_derived(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    quad: Quadrant,
    q: QuadConfig,
) -> float:
    """One quadrant of the derived expansion: per-branch endpoint weights
    3w/4 on the anchor and w/4 on the far endpoint, all signs positive on
    the point block."""
    t_half, s_half = _quadrant_halves(r, pt, quad)
    t_nodes = (t_half.anchor_node, t_half.end_node)
    t_weights = (0.75 * t_half.width, 0.25 * t_half.width)
    s_nodes = (s_half.anchor_node, s_half.end_node)
    s_weights = (0.75 * s_half.width, 0.25 * s_half.width)
    points = sum(
        wt * wsj * f.eval(tn, sn)
        for tn, wt in zip(t_nodes, t_weights)
        for sn, wsj in zip(s_nodes, s_weights)
    )
    lines_s = sum(
        wt * _line_integral(f.fix_t(tn), s_half.lo, s_half.hi, q)
        for tn, wt in zip(t_nodes, t_weights)
    )
    lines_t = sum(
        wsj * _line_integral(f.fix_s(sn), t_half.lo, t_half.hi, q)
        for sn, wsj in zip(s_nodes, s_weights)
    )
    dbl = _double_integral(f, t_half, s_half, q)
    return points - lines_s - lines_t + dbl


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
    return verbatim_from_terms(anchor_terms(f, r, [pt], q)[0])


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


def derived_from_terms(terms: AnchorTerms) -> float:
    """full_expansion_derived at terms.point; the nodes of
    expansion_weights are the order of the terms' values and lines."""
    _, t_weights = expansion_weights(terms.rect.t_axis, terms.point.x)
    _, s_weights = expansion_weights(terms.rect.s_axis, terms.point.y)
    points = sum(
        wt * ws * value
        for wt, row in zip(t_weights, terms.values)
        for ws, value in zip(s_weights, row)
    )
    lines_t = sum(wt * line for wt, line in zip(t_weights, terms.along_s))
    lines_s = sum(ws * line for ws, line in zip(s_weights, terms.along_t))
    return points - lines_t - lines_s + terms.double


def full_expansion_derived(
    f: BivariateFunction, r: Rectangle, pt: EvalPoint, q: QuadConfig
) -> float:
    """The re-derived expansion, un-normalized: tensor product of the two
    per-axis boundary functionals applied to f. Validated against
    kernel_weighted_integral before anything downstream trusts it."""
    return derived_from_terms(anchor_terms(f, r, [pt], q)[0])


def assembly_residue(f: BivariateFunction, r: Rectangle, pt: EvalPoint) -> float:
    """Closed-form gap (stated full expansion) - (sum of stated quadrant
    expansions): the f(b, c) and f(b, d) coefficients do not survive the
    reassembly, leaving -(b-x)/8 * [3(d-y) f(b,d) - (y-c) f(b,c)]."""
    b = r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    return -(b - x) / 8.0 * (3.0 * (d - y) * f.eval(b, d) - (y - c) * f.eval(b, c))


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
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    q: QuadConfig,
    tol: float = 1e-9,
) -> IdentityReport:
    """Oracle, stated and derived values plus per-quadrant comparisons.

    Requires an exact mixed partial. Status is OK iff the derived full
    expansion agrees with the oracle to tol * (1 + |oracle|); the stated
    discrepancy is reported, never corrected.
    """
    if not f.has_exact_mixed:
        raise MissingMixedPartial(
            f"identity_report needs an exact mixed partial for {f.label!r}"
        )
    per_quadrant: dict[Quadrant, QuadrantComparison] = {}
    for quad in Quadrant:
        per_quadrant[quad] = QuadrantComparison(
            verbatim=quadrant_expansion_verbatim(f, r, pt, quad, q),
            derived=quadrant_expansion_derived(f, r, pt, quad, q),
            oracle=quadrant_oracle(f, r, pt, quad, q, fd_fallback=False),
        )
    oracle = sum(c.oracle for c in per_quadrant.values())
    terms = anchor_terms(f, r, [pt], q)[0]
    verbatim = verbatim_from_terms(terms)
    derived = derived_from_terms(terms)
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
