"""Stacked sampling of the audit's random polynomials.

`verify` samples a chunk of trials at once (`sample_1d`, `sample_2d`).
Each trial's coefficients are padded with zeros to the chunk's degree,
and every sample of the chunk comes from Horner recurrences over arrays
with a leading trial axis: f's rows are summed in s for every row at
once, then f in t over the rows (`_f_grid`); the mixed partial and g'
are the slopes of those sums (`_horner_slope`). Each step of a
recurrence is the operation that the trial's own tree, the Horner tree
that `expr.polynomial` builds and `expr.differentiate` differentiates,
takes at that node, so every sample keeps the tree's bits: a padded
coefficient only adds a signed zero to a nonzero value. Every step over a
full grid writes into one of a few buffers that each thread keeps for the
next chunk (`_kept`), so a chunk faults in no new memory.

The samples are kept as columns, one row per case (`IntervalSamples`,
`AnchorSamples`), none of them a view of a kept buffer, from which the
rules' terms are read for all rows at once (`terms`); a case sampled on
its own is written into its row (`put`). Every sample and every reduction
keeps the bits that sampling the trial's own tree gives.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Optional

import numpy as np

from .core import DerivativeBounds, EvalPoint, Interval1D, QuadConfig, Rectangle, unchecked
from .quadrature import gl_nodes
from .rules import AnchorTerms, IntervalTerms

__all__ = [
    "VERIFY_CFG",
    "BOUNDS_GRID",
    "BOUNDS_PAD",
    "DERIV_GRID",
    "IntervalSamples",
    "AnchorSamples",
    "rows",
    "join",
    "sample_1d",
    "sample_2d",
]

# the audit's quadrature: one panel of 16 nodes per segment
VERIFY_CFG = QuadConfig(gl_order=16, panels=1, abs_tol=1e-14)
# points per axis of the sampled mixed-partial bounds, and the relative pad
# of every sampled derivative range
BOUNDS_GRID = 33
BOUNDS_PAD = 0.25
# points of the grid on which g's derivative range is sampled
DERIV_GRID = 129


def _horner(coeffs, x, out: np.ndarray) -> np.ndarray:
    """coeffs[0] + x * (coeffs[1] + x * (... + x * coeffs[-1])) into out,
    innermost sum first, as the Horner tree of expr.polynomial_1d takes it.
    The coefficients are arrays (or the rows of one), each broadcasting
    with x to out's shape."""
    h = coeffs[-1]
    for c in coeffs[-2::-1]:
        h = np.add(c, np.multiply(x, h, out=out), out=out)
    if h is not out:
        np.copyto(out, h)
    return out


def _horner_slope(coeffs, x, value: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The derivative in x of _horner's sum into out, as expr.differentiate
    gives it: with the partial sums h_j = coeffs[j] + x * h_{j+1} (h_{n-1}
    = coeffs[n-1]), written into value as they are needed, the slope is
    d_0 of d_{n-2} = h_{n-1} and d_{j-1} = h_j + x * d_j; a constant's
    slope is 0."""
    if len(coeffs) == 1:
        out.fill(0.0)
        return out
    h = d = coeffs[-1]
    for c in coeffs[-2:0:-1]:
        h = np.add(c, np.multiply(x, h, out=value), out=value)
        d = np.add(h, np.multiply(x, d, out=out), out=out)
    if d is not out:
        np.copyto(out, d)
    return out


def _rows(coeffs: np.ndarray, s: np.ndarray) -> tuple:
    """The coefficients of f (trials x t powers x s powers) as the columns
    of every row, one per power of s, shaped to broadcast with s, and an
    empty array of the shape of every row's sum over them."""
    columns = coeffs.T[(...,) + (None,) * (s.ndim - 1)]
    return columns, np.empty(np.broadcast_shapes(columns.shape[1:], s.shape))


def _f_grid(coeffs: np.ndarray, t: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f of every trial (coefficients as _rows takes them) on the grid of
    t against s into out: each row's sum in s, for all rows at once, then
    the sum in t over the rows."""
    columns, rows = _rows(coeffs, s)
    return _horner(_horner(columns, s, rows), t, out)


def _mixed_grid(coeffs: np.ndarray, t: np.ndarray, s: np.ndarray, value: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """The mixed partial of f of every trial on the grid of t against s into
    out: the slope in t over the rows' slopes in s (value is a work array
    of out's shape)."""
    columns, rows = _rows(coeffs, s)
    return _horner_slope(_horner_slope(columns, s, np.empty_like(rows), rows), t, value, out)


class _Kept(threading.local):
    """The flat buffers that a chunk's full grids are written into, one set
    per thread, each grown when a larger chunk needs more."""

    def __init__(self) -> None:
        self.flat = [np.empty(0), np.empty(0)]


_KEPT = _Kept()


def _kept(i: int, shape: tuple) -> np.ndarray:
    """Kept buffer i of this thread, viewed as shape. What it holds is
    written again by the next chunk: a sample returned from it is copied
    first."""
    size = math.prod(shape)
    if _KEPT.flat[i].size < size:
        _KEPT.flat[i] = np.empty(size)
    return _KEPT.flat[i][:size].reshape(shape)


def _no_unit_coefficient(coeffs: list) -> bool:
    """Whether no coefficient is 0 or 1: simplify would prune or shortcut
    such a coefficient's node in the trial's own tree, and the stacked
    samples are shown to equal its own only without them."""
    return 0.0 not in coeffs and 1.0 not in coeffs


def _finite_rows(values: np.ndarray) -> np.ndarray:
    """Per trial (leading axis), whether all of its values are finite."""
    return np.isfinite(values).reshape(len(values), -1).all(axis=1)


def _reduce(weights: np.ndarray, values: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """np.vecdot of weights and values over the last axis, in the layout
    that sampling each trial's own tree gives: the rows of the trials
    marked flat (their polynomial does not vary along these rows) are
    reduced as zero-stride rows of their first value."""
    out = np.vecdot(weights, values)
    if flat.any():
        kept = values[flat]
        out[flat] = np.vecdot(weights[flat], np.broadcast_to(kept[..., :1], kept.shape))
    return out


class IntervalSamples(NamedTuple):
    """What t1 and t2 read of g, one row per case: the interval (lo, hi),
    the point x, g at (x, lo, hi), the integral of g over the interval, and
    the padded range [lower, upper] of g' with its magnitude bound."""

    interval: np.ndarray
    x: np.ndarray
    at: np.ndarray
    integral: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    magnitude: np.ndarray

    def terms(self) -> IntervalTerms:
        """IntervalTerms whose fields hold the rows' columns; the rules take
        them as they take one case's terms."""
        lo, hi = self.interval.T
        return IntervalTerms(iv=unchecked(Interval1D, lo=lo, hi=hi), x=self.x,
                             at_x=self.at[:, 0], at_lo=self.at[:, 1], at_hi=self.at[:, 2],
                             integral=self.integral)

    def put(self, j: int, terms: IntervalTerms, lower: float, upper: float,
            magnitude: float) -> None:
        """Write one case's terms and g' bounds into row j."""
        self.at[j] = terms.at_x, terms.at_lo, terms.at_hi
        self.integral[j] = terms.integral
        self.lower[j], self.upper[j], self.magnitude[j] = lower, upper, magnitude


class AnchorSamples(NamedTuple):
    """What the two-variable rules read of f, one row per case with A
    anchors: rect (a, b, c, d), the anchors xy (A x 2), f on the grid of
    t in (anchor x's, a, b) and s in (anchor y's, c, d) (points, the order
    rules.anchor_terms takes them in), the integral over t along each s
    of that grid (along_t) and over s along each t (along_s), the double
    integral split at each anchor, and the mixed-partial bounds."""

    rect: np.ndarray
    xy: np.ndarray
    points: np.ndarray
    along_t: np.ndarray
    along_s: np.ndarray
    double: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def terms(self, a: int) -> AnchorTerms:
        """AnchorTerms at every row's anchor a, holding the rows' columns."""
        t_lo, t_hi, s_lo, s_hi = self.rect.T
        last = self.xy.shape[1]
        nodes = (a, last, last + 1)
        return AnchorTerms(
            rect=Rectangle(unchecked(Interval1D, lo=t_lo, hi=t_hi),
                           unchecked(Interval1D, lo=s_lo, hi=s_hi)),
            point=EvalPoint(self.xy[:, a, 0], self.xy[:, a, 1]),
            values=tuple(tuple(self.points[:, u, v] for v in nodes) for u in nodes),
            along_t=tuple(self.along_t[:, u] for u in nodes),
            along_s=tuple(self.along_s[:, u] for u in nodes),
            double=self.double[:, a],
        )

    def put(self, j: int, terms: list, db: DerivativeBounds) -> None:
        """Write one case's AnchorTerms (one per anchor) and bounds into
        row j."""
        last = len(terms)
        for a, anchor in enumerate(terms):
            nodes = [a, last, last + 1]
            self.points[j][np.ix_(nodes, nodes)] = anchor.values
            self.along_t[j, nodes] = anchor.along_t
            self.along_s[j, nodes] = anchor.along_s
            self.double[j, a] = anchor.double
        self.lower[j], self.upper[j] = db.lower, db.upper


def rows(samples, stop: int):
    """The first `stop` rows of samples."""
    return type(samples)(*(field[:stop] for field in samples))


def join(first: Optional[tuple], then: Optional[tuple]) -> tuple:
    """The rows of samples `first` followed by those of `then` (either may
    be None), and the number of rows of first."""
    if first is None or then is None:
        return (then if first is None else first), (0 if first is None else len(first[0]))
    return type(first)(*map(np.concatenate, zip(first, then))), len(first[0])


def sample_1d(trials: list, degree: int) -> tuple[IntervalSamples, np.ndarray]:
    """The samples of every trial's g, taken for all trials at once, and
    per trial whether they are its own: False for a trial that must be
    sampled on its own, one with a non-finite sample, a coefficient of 0
    or 1, or an interval or point that interval_terms rejects."""
    k, n = len(trials), degree + 1
    coeffs = np.zeros((k, n))
    for row, trial in zip(coeffs, trials):
        row[:len(trial.g)] = trial.g
    columns = coeffs.T[:, :, None]
    interval = np.array([trial.interval for trial in trials])
    lo, hi = interval.T
    x = np.array([trial.x for trial in trials])
    nodes, weights = gl_nodes(lo, hi, VERIFY_CFG)
    # g at x, lo and hi, then at the nodes, in one evaluation
    ts = np.concatenate((x[:, None], interval, nodes), axis=1)
    values = _horner(columns, ts, _kept(0, ts.shape))
    ok = np.array([_no_unit_coefficient(trial.g) for trial in trials])
    ok &= _finite_rows(interval) & (lo < hi) & (lo <= x) & (x <= hi) & _finite_rows(values)
    at = values[:, :3].copy()
    integral = _reduce(weights, np.ascontiguousarray(values[:, 3:]),
                       np.array([len(trial.g) == 1 for trial in trials]))
    grid = np.linspace(lo, hi, DERIV_GRID, axis=-1)
    deriv = _horner_slope(columns, grid, _kept(0, grid.shape), _kept(1, grid.shape))
    d_min, d_max = deriv.min(axis=1), deriv.max(axis=1)
    pad = BOUNDS_PAD * (d_max - d_min) + 1e-12
    d_lo, d_hi = d_min - pad, d_max + pad
    ok &= np.isfinite(integral) & np.isfinite(d_lo) & np.isfinite(d_hi)
    magnitude = np.maximum(np.abs(d_lo), np.abs(d_hi))
    return IntervalSamples(interval, x, at, integral, d_lo, d_hi, magnitude), ok


def _split_nodes(lo: np.ndarray, x: np.ndarray, hi: np.ndarray) -> tuple:
    """Nodes and weights of every trial's axis [lo, hi] split at each of
    its anchors' x, shape (trials, anchors, 2 * nodes), as integrate_2d
    takes them for a split at x."""
    lo, hi = (np.broadcast_to(end[:, None], x.shape) for end in (lo, hi))
    nodes, weights = gl_nodes(np.stack((lo, x), axis=-1), np.stack((x, hi), axis=-1),
                              VERIFY_CFG)
    return nodes.reshape(x.shape + (-1,)), weights.reshape(x.shape + (-1,))


def sample_2d(trials: list, degree: int, anchors: tuple) -> tuple[AnchorSamples, np.ndarray]:
    """The samples of every trial's f at `anchors` and its sampled
    mixed-partial bounds, taken for all trials at once, and per trial
    whether they are its own: False for a trial that must be sampled on
    its own, one with a non-finite sample, a coefficient of 0 or 1, a
    non-finite rectangle, or an anchor not strictly inside it (on an edge,
    the split double integral has one segment, not two)."""
    k, n = len(trials), degree + 1
    coeffs = np.zeros((k, n, n))
    for row, trial in zip(coeffs, trials):
        for i, f_row in enumerate(trial.f):
            row[i, :len(f_row)] = f_row
    rect = np.array([trial.rect for trial in trials])
    t_lo, t_hi, s_lo, s_hi = rect.T
    flat_t = np.array([len(trial.f) == 1 for trial in trials])
    flat_s = np.array([len(trial.f[0]) == 1 for trial in trials])

    # mixed-partial bounds as estimate_bounds samples them: one linspace
    # from the lower edges (a, c) to the upper edges (b, d) of each trial
    axes = np.linspace(rect[:, 0::2], rect[:, 1::2], BOUNDS_GRID, axis=-1)
    shape = (k, BOUNDS_GRID, BOUNDS_GRID)
    mixed = _mixed_grid(coeffs, axes[:, 0, :, None], axes[:, 1, None, :], _kept(1, shape),
                        _kept(0, shape))
    m_lo, m_hi = mixed.min(axis=(1, 2)), mixed.max(axis=(1, 2))
    pad = BOUNDS_PAD * (m_hi - m_lo) + 1e-12
    lower, upper = m_lo - pad, m_hi + pad
    # min and max take a NaN, and an infinity makes a bound infinite, so
    # finite bounds mean finite samples
    ok = np.isfinite(lower) & np.isfinite(upper) & _finite_rows(rect)
    ok &= [_no_unit_coefficient([value for row in trial.f for value in row])
           for trial in trials]
    xy = np.array([[getattr(trial, name) for name in anchors] for trial in trials])
    x, y = xy[:, :, 0], xy[:, :, 1]
    ok &= ((t_lo[:, None] < x) & (x < t_hi[:, None])
           & (s_lo[:, None] < y) & (y < s_hi[:, None])).all(axis=1)

    # f on one grid: t in the anchors' x, the edges a, b and the t nodes,
    # against s in the anchors' y, c, d and the s nodes; its blocks are the
    # point values (the order anchor_terms takes them in) and the lines
    m = len(anchors) + 2
    tn, tw = gl_nodes(t_lo, t_hi, VERIFY_CFG)
    sn, sw = gl_nodes(s_lo, s_hi, VERIFY_CFG)
    ts = np.concatenate((x, rect[:, :2], tn), axis=1)
    ss = np.concatenate((y, rect[:, 2:], sn), axis=1)
    grid = _f_grid(coeffs, ts[:, :, None], ss[:, None, :],
                   _kept(0, (k, ts.shape[1], ss.shape[1])))
    points = grid[:, :m, :m].copy()
    lines_t = np.ascontiguousarray(grid[:, m:, :m].transpose(0, 2, 1))
    lines_s = np.ascontiguousarray(grid[:, :m, m:])
    ok &= _finite_rows(points) & _finite_rows(lines_t) & _finite_rows(lines_s)
    along_t = _reduce(tw[:, None, :], lines_t, flat_t)
    along_s = _reduce(sw[:, None, :], lines_s, flat_s)

    # the double integral split at each anchor, every anchor in one go:
    # `tw @ grid @ sw` per trial and anchor as integrate_2d takes it, as
    # one batched matmul; a constant's grid stays zero-stride
    tn, tw = _split_nodes(t_lo, x, t_hi)
    sn, sw = _split_nodes(s_lo, y, s_hi)
    grids = _f_grid(coeffs, tn[..., :, None], sn[..., None, :],
                    _kept(0, tn.shape + sn.shape[-1:]))
    ok &= _finite_rows(grids)
    double = np.vecdot(np.matmul(tw[..., None, :], grids)[..., 0, :], sw)
    for j in np.flatnonzero(flat_t & flat_s & ok).tolist():
        for a in range(len(anchors)):
            constant = np.broadcast_to(grids[j, a, 0, 0], grids.shape[2:])
            double[j, a] = float(tw[j, a] @ constant @ sw[j, a])
    return AnchorSamples(rect, xy, points, along_t, along_s, double, lower, upper), ok
