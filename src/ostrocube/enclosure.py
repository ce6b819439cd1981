"""Certified enclosures of a double integral.

Let V be the kernel-weighted integral audited in the identity module, S
the signed moment and A the absolute moment of the kernel pair, and let
the mixed partial satisfy lower <= d2f/dtds <= upper with midpoint M and
halfwidth h. Centering the derivative at M gives

    |V - M S| <= h A,

and since the derived expansion writes V = P - L + II (point terms minus
line-integral terms plus the double integral), solving for II yields the
enclosure

    II  in  [M S - P + L - h A - pad,  M S - P + L + h A + pad].

`pad` is an explicit numerical-noise budget: each line integral is
evaluated at two quadrature resolutions and the absolute differences are
summed (truncation), plus a machine-epsilon allowance proportional to the
absolute-term mass of the assembled center (roundoff), plus the config's
abs_tol floor. The budget is honest rather than rigorous; it is recorded
in the report.

The composite rule partitions the rectangle and anchors every cell at its
midpoint, which kills the signed moment (anchor-symmetry) and minimizes
the absolute moment, so with global bounds the total width is

    (upper - lower) * 25 (b-a)^2 (d-c)^2 / (1024 m n)   (+ padding).

Given bounds are checked against the exact mixed partial, when f has one,
at every cell anchor; a value outside them makes the result non-rigorous.
Sampling can prove given bounds wrong, never right.

Cost. Single-cell and composite enclosures run through one grid assembler.
Neighbouring cells share their edge lines, so an m x n grid integrates
(2m+1) n + (2n+1) m line segments per resolution instead of 6 m n, and the
point terms are one (2m+1) x (2n+1) grid of values. Every evaluation of f,
and of its mixed partial for sampled bounds, returns at most
quadrature.BLOCK_SAMPLES values, or, for the lines and sampled bounds of
an expression, quadrature.REGISTER_BLOCK_SAMPLES values into arrays kept
per thread, so memory stays flat as the grid grows (the anchor check of
given bounds takes one value per cell). Per-cell
sums are elementwise array arithmetic in the order a cell-by-cell loop
would use, and the totals are added cell by cell in row-major order, so
the result is the same to the last bit as evaluating each cell on its
own.

Enclosures are built exclusively on the derived expansion; the stated one
fails the constant-function audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BivariateFunction,
    DegenerateDomain,
    DerivativeBounds,
    Enclosure,
    EngineError,
    EvalPoint,
    Interval1D,
    QuadConfig,
    Rectangle,
    unchecked,
)
from .identity import corrected_from_terms, expansion_weights
from .kernels import abs_moment, signed_moment
from .quadrature import (
    _check_finite,
    cell_bounds,
    gl_nodes,
    grid_values,
    line_integrals,
    sample_mixed,
)
from .rules import (
    Lambda,
    _outcome,
    anchor_terms,
    qiaoling_from_terms,
    quarter_rule_from_terms,
    sarikaya_from_terms,
)

# no longer called here; they stay importable from this module, where
# perfbench/tracing.py counts them
from .identity import full_expansion_derived  # noqa: F401
from .quadrature import estimate_bounds, integrate_1d  # noqa: F401
from .rules import (  # noqa: F401
    qiaoling_functional,
    quarter_rule_functional,
    sarikaya_functional,
)

__all__ = [
    "EnclosureReport",
    "ComparisonReport",
    "single_cell_enclosure",
    "composite_enclosure",
    "compare_bounds",
]

_EPS = 2.220446049250313e-16
# most cells composite_enclosure takes, in all (1024 x 1024) and per axis:
# per-cell arrays and the output grow with m * n, the quadrature nodes of
# the lines with m + n (one axis of 2^20 cells peaked at 6.6 GB); runs at
# 1024 x 1024, 256 x 4096 and 4096 x 256 peaked at 210-260 MB resident
_MAX_CELLS = 1 << 20
_MAX_AXIS_CELLS = 1 << 12
# sampling grid and relative pad of the per-cell bounds that
# composite_enclosure estimates when none are given
_CELL_BOUNDS_GRID = 17
_CELL_BOUNDS_PAD = 0.1


@dataclass(frozen=True)
class EnclosureReport:
    enclosure: Enclosure
    point_used: EvalPoint
    bounds_used: DerivativeBounds
    rigorous: bool
    cells: int
    per_cell_width: Optional[tuple[float, ...]]
    quadrature_padding: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-rule lhs, certified width (rhs) and violation flag, for the
    three two-variable rules plus the corrected bound."""

    lhs: dict
    widths: dict
    violated: dict


def _assemble(
    f: BivariateFunction,
    t_edges: np.ndarray,
    t_anchors: np.ndarray,
    s_edges: np.ndarray,
    s_anchors: np.ndarray,
    midpoint,
    halfwidth,
    q: QuadConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell centre M*S - P + L, noise budget and moment term h*A.

    Cell (i, j) is [t_edges[i], t_edges[i+1]] x [s_edges[j], s_edges[j+1]]
    anchored at (t_anchors[i], s_anchors[j]); `midpoint` and `halfwidth`
    of the derivative bounds are scalars or (m, n) arrays. Each returned
    array has shape (m, n).
    """
    m, n = len(t_anchors), len(s_anchors)
    # every cell at once: t columns and s rows, so a formula over one
    # rectangle and anchor gives each cell's value at [i, j]
    cells = unchecked(
        Rectangle,
        t_axis=unchecked(Interval1D, lo=t_edges[:-1, None], hi=t_edges[1:, None]),
        s_axis=unchecked(Interval1D, lo=s_edges[None, :-1], hi=s_edges[None, 1:]),
    )
    anchors = unchecked(EvalPoint, x=t_anchors[:, None], y=s_anchors[None, :])
    _, wt = expansion_weights(cells.t_axis, anchors.x)
    _, ws = expansion_weights(cells.s_axis, anchors.y)
    # each axis's line positions: anchors first, then edges, so a cell's
    # nodes (anchor, lo, hi) are the rows i, m + i and m + i + 1
    t_at = np.concatenate((t_anchors, t_edges))
    s_at = np.concatenate((s_anchors, s_edges))
    t_rows = (slice(0, m), slice(m, 2 * m), slice(m + 1, 2 * m + 1))
    s_rows = (slice(0, n), slice(n, 2 * n), slice(n + 1, 2 * n + 1))

    values = grid_values(f, t_at, s_at)
    # line integrals at the base and the refined resolution, indexed
    # [t position, s position]: t-lines run over the s-cells and s-lines
    # over the t-cells
    s_nodes = [gl_nodes(s_edges[:-1], s_edges[1:], c) for c in (q, q.refined())]
    t_nodes = [gl_nodes(t_edges[:-1], t_edges[1:], c) for c in (q, q.refined())]
    t_base, t_fine = (line_integrals(f, "t", t_at.tolist(), *nw) for nw in s_nodes)
    s_base, s_fine = (line_integrals(f, "s", s_at.tolist(), *nw).T for nw in t_nodes)
    # the point values are checked after the lines, whose report names the
    # first bad line
    _check_finite(values, f.label)

    points = np.zeros((m, n))
    abs_mass = np.zeros((m, n))
    for rt, w_t in zip(t_rows, wt):
        for rs, w_s in zip(s_rows, ws):
            term = w_t * w_s * values[rt, rs]
            points += term
            abs_mass += np.abs(term)

    cell_lines = [(w, t_base[rt], t_fine[rt]) for rt, w in zip(t_rows, wt)]
    cell_lines += [(w, s_base[:, rs], s_fine[:, rs]) for rs, w in zip(s_rows, ws)]
    lines = np.zeros((m, n))
    truncation = np.zeros((m, n))
    for w, base, fine in cell_lines:
        lines += w * base
        truncation += w * np.abs(base - fine)
        abs_mass += np.abs(w * base)

    ms = midpoint * signed_moment(cells, anchors)
    abs_mass += np.abs(ms)
    center = ms - points + lines
    # truncation from the two-resolution comparison, roundoff proportional
    # to the absolute mass of the assembled terms; the config's abs_tol
    # floor is added once per enclosure by the callers
    pad = truncation + 48.0 * _EPS * abs_mass
    moment = halfwidth * abs_moment(cells, anchors)
    return center, pad, moment


def _bounds_hold_at(
    f: BivariateFunction, db: DerivativeBounds, ts: np.ndarray, ss: np.ndarray
) -> bool:
    """False when the exact mixed partial, at some anchor of ts x ss, lies
    outside the given bounds or cannot be evaluated. True without an exact
    partial: only a contradiction is ever found, never a proof."""
    if not f.has_exact_mixed:
        return True
    try:
        vals = sample_mixed(f, np.asarray(ts)[:, None], np.asarray(ss)[None, :], None,
                            fd_fallback=False)
    except (EngineError, ArithmeticError, ValueError):
        # a partial undefined at an anchor (DomainError from an expression,
        # ZeroDivisionError or ValueError from a plain callable) is not
        # bounded there, but f itself may still be integrable
        return False
    return bool(np.all((db.lower <= vals) & (vals <= db.upper)))


def _row_major_sum(values: np.ndarray) -> float:
    """0.0 + v[0] + v[1] + ..., added one value at a time in row-major order."""
    return float(np.add.accumulate(np.concatenate(([0.0], values.ravel())))[-1])


def single_cell_enclosure(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    db: DerivativeBounds,
    q: QuadConfig,
    bounds_estimated: bool = False,
) -> EnclosureReport:
    """Enclosure of the double integral over r from one anchored rule."""
    center, pad, moment = _assemble(
        f,
        np.array([r.t_axis.lo, r.t_axis.hi]),
        np.array([pt.x]),
        np.array([r.s_axis.lo, r.s_axis.hi]),
        np.array([pt.y]),
        db.midpoint,
        db.halfwidth,
        q,
    )
    pad = float(pad[0, 0]) + q.abs_tol
    radius = float(moment[0, 0]) + pad
    center = float(center[0, 0])
    rigorous = not bounds_estimated and _bounds_hold_at(f, db, [pt.x], [pt.y])
    return EnclosureReport(
        enclosure=Enclosure(center - radius, center + radius),
        point_used=pt,
        bounds_used=db,
        rigorous=rigorous,
        cells=1,
        per_cell_width=None,
        quadrature_padding=pad,
    )


def composite_enclosure(
    f: BivariateFunction,
    r: Rectangle,
    bounds: Optional[DerivativeBounds],
    m: int,
    n: int,
    q: QuadConfig,
) -> EnclosureReport:
    """m x n equal cells, each anchored at its midpoint, summed row-major.

    With `bounds` given they apply globally and the result is rigorous up
    to the declared quadrature padding, unless the exact mixed partial
    leaves them at a cell midpoint; with bounds=None each cell gets sampled
    bounds (cell_bounds, as estimate_bounds would give) and the result is
    flagged non-rigorous. A grid of more than _MAX_AXIS_CELLS cells on an
    axis or _MAX_CELLS in all raises ValueError before any node is built.
    """
    if m < 1 or n < 1:
        raise ValueError(f"subdivision must be >= 1 in each axis, got {m} x {n}")
    if max(m, n) > _MAX_AXIS_CELLS or m * n > _MAX_CELLS:
        raise ValueError(f"{m} x {n} cells is too fine: at most {_MAX_AXIS_CELLS} "
                         f"cells per axis and {_MAX_CELLS} in all")
    t_edges = r.t_axis.lo + np.arange(m + 1) * (r.t_axis.length / m)
    s_edges = r.s_axis.lo + np.arange(n + 1) * (r.s_axis.length / n)
    if not (np.all(t_edges[:-1] < t_edges[1:]) and np.all(s_edges[:-1] < s_edges[1:])):
        raise DegenerateDomain(f"{m} x {n} cells of {r} include one of zero width")
    t_mids = 0.5 * (t_edges[:-1] + t_edges[1:])
    s_mids = 0.5 * (s_edges[:-1] + s_edges[1:])
    if bounds is None:
        lower, upper = cell_bounds(f, t_edges, s_edges, _CELL_BOUNDS_GRID, _CELL_BOUNDS_PAD)
        hull = DerivativeBounds(lower.min(), upper.max())
        midpoint, halfwidth = 0.5 * (upper + lower), 0.5 * (upper - lower)
        rigorous = False
    else:
        hull = bounds
        midpoint, halfwidth = bounds.midpoint, bounds.halfwidth
        rigorous = _bounds_hold_at(f, bounds, t_mids, s_mids)
    center, pad, moment = _assemble(
        f, t_edges, t_mids, s_edges, s_mids, midpoint, halfwidth, q
    )
    radius = moment + pad
    total_center = _row_major_sum(center)
    total_radius = _row_major_sum(radius) + q.abs_tol
    return EnclosureReport(
        enclosure=Enclosure(total_center - total_radius, total_center + total_radius),
        point_used=r.center,
        bounds_used=hull,
        rigorous=rigorous,
        cells=m * n,
        per_cell_width=tuple((2.0 * radius).ravel().tolist()),
        quadrature_padding=_row_major_sum(pad) + q.abs_tol,
    )


def compare_bounds(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    db: DerivativeBounds,
    lam: Lambda,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> ComparisonReport:
    """Certified error radii of the two-variable rules at one anchor.

    All radii share the rule-statement normalization (divided by the
    area). `corrected` is identity.corrected_from_terms normalized: radius
    h*A/area, lhs |derived expansion - M*S| / area, judged with this
    function's slack. The four rules read one set of anchor terms
    (rules.anchor_terms).
    """
    terms = anchor_terms(f, r, pt, q)
    corrected = corrected_from_terms(terms, db)
    outcomes = {
        "sarikaya": sarikaya_from_terms(terms, db, slack=slack),
        "qiaoling": qiaoling_from_terms(terms, db, lam, slack=slack),
        "t5_verbatim": quarter_rule_from_terms(terms, db, slack=slack),
        "corrected": _outcome(corrected.lhs / r.area, corrected.rhs / r.area, slack),
    }
    return ComparisonReport(
        lhs={name: out.lhs for name, out in outcomes.items()},
        widths={name: out.rhs for name, out in outcomes.items()},
        violated={name: not out.satisfied for name, out in outcomes.items()},
    )
