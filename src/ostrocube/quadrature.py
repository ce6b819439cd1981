"""Reference numerical integration and differentiation.

Composite Gauss-Legendre rules over panels, with optional breakpoint
refinement so integrands that are only piecewise smooth can be split at
their kinks. A rule of order n integrates polynomials of degree 2n-1
exactly, so the defaults (order 16, 8 panels) are exact with a huge margin
for the polynomial corpus used elsewhere in the package.

Outer sampling. The grid routines never build a meshgrid: f receives
per-axis coordinates that broadcast against each other (t along one axis,
s along another; for line integrals the fixed coordinates along a leading
axis in front of the node rows), so each one-variable subtree of an
expression is computed along its own axis only. Results are the same to
the last bit as sampling full grids, under these rules:

- a reduction sees the layout it would see from a full grid. Along a line,
  a value that does not vary stays a zero-stride row, as a scalar fixed
  coordinate gives it; in integrate_2d, a one-variable result is laid out
  in full and only a constant stays a zero-stride view. (`np.vecdot` and
  matmul reduce zero-stride and contiguous rows in different orders;
  min and max do not care.)
- a failing line is reported as before: a NonFiniteSample names the first
  bad line's cross-section label with its count, and an error raised
  while several lines are sampled together is raised again by the first
  line that fails on its own.
- a grid that a reduction reads whole (split_grid, integrate_2d) is
  filled in row blocks too, so every call of f stays within BLOCK_SAMPLES
  values; only the grid itself grows with the node count. Its error is
  the one the whole grid raises: after a block fails, the whole grid is
  sampled in one call again.
- a subtree of one variable is evaluated once per sampler call, not once
  per block, when a call takes several blocks and f (its mixed partial,
  for cell_bounds) is a compiled expression. line_integrals evaluates
  the largest subtrees of the node variable over each block of node rows
  before its loop over the lines, and every block of lines reuses them;
  cell_bounds evaluates those of each variable over the sample rows of
  all cells of that axis, and every block takes its cells' rows. Hoisted
  arrays are no larger than the node or sample array. If a hoisted
  subtree raises, nothing is hoisted and the blocks evaluate f as it is,
  so the error is the one they always raised. A plain callable, or a
  wrapper around a compiled one, is sampled as it is.

Elementwise arithmetic gives each sample the same bits in any layout; the
one numpy exception, power's shortcuts for a scalar exponent, is applied
to array exponents too by the expression evaluator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    BivariateFunction,
    DerivativeBounds,
    EngineError,
    EvalPoint,
    Interval1D,
    InvalidBounds,
    MissingMixedPartial,
    QuadConfig,
    Rectangle,
    UnivariateFunction,
)

__all__ = [
    "NonFiniteSample",
    "UnsupportedOrder",
    "GLRule",
    "BLOCK_SAMPLES",
    "gl_rule",
    "gl_nodes",
    "integrate_1d",
    "integrate_2d",
    "split_grid",
    "grid_values",
    "line_integrals",
    "estimate_bounds",
    "cell_bounds",
    "default_fd_steps",
    "sample_univariate",
    "sample_bivariate",
    "sample_mixed",
]

_EPS = float(np.finfo(float).eps)
_FD_STEP = _EPS ** (1.0 / 3.0)

# Most values one call of an integrand returns to the grid routines
# (grid_values, split_grid and integrate_2d, line_integrals, cell_bounds,
# and the identity oracle's sampling of the mixed partial); it keeps the
# evaluator's temporaries flat in the grid size.
BLOCK_SAMPLES = 8192


class NonFiniteSample(EngineError):
    """An integrand or derivative sample came back NaN or infinite."""


class UnsupportedOrder(EngineError):
    """Gauss-Legendre order outside the supported range 2..64."""


@dataclass(frozen=True)
class GLRule:
    """Gauss-Legendre nodes and weights on the reference interval (-1, 1)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gl_rule(order: int) -> GLRule:
    """Nodes and weights by Newton iteration on the Legendre polynomial.

    Initial guesses are the Chebyshev angle approximations; iteration runs
    to 1e-15 on the node update. Nodes are symmetrized about 0 so the rule
    is exactly even.
    """
    if int(order) != order or not 2 <= order <= 64:
        raise UnsupportedOrder(f"Gauss-Legendre order must be in 2..64, got {order!r}")
    n = int(order)

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_n and P_n' at x, by the three-term recurrence."""
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    k = np.arange(1, n + 1, dtype=float)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # one clean evaluation at the converged nodes
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    x = x[idx]
    w = w[idx]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return GLRule(order=n, nodes=x, weights=w)


def _segment_edges(lo: float, hi: float, breakpoints: Iterable[float]) -> list[float]:
    inner = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    return [lo, *inner, hi]


def gl_nodes(
    lo: np.ndarray, hi: np.ndarray, q: QuadConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Composite-rule nodes and weights of every segment [lo[k], hi[k]].

    Returns two arrays of shape lo.shape + (panels * gl_order,): row k holds
    the panels of segment k left to right, each panel's nodes mid + half *
    reference node and weights half * reference weight.
    """
    rule = gl_rule(q.gl_order)
    lo = np.asarray(lo, dtype=float)[..., None]
    step = (np.asarray(hi, dtype=float)[..., None] - lo) / q.panels
    half = 0.5 * step
    mid = lo + np.arange(q.panels) * step + half
    nodes = mid[..., None] + half[..., None] * rule.nodes
    weights = np.broadcast_to(half[..., None] * rule.weights, nodes.shape)
    shape = mid.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def _axis_quadrature(
    iv: Interval1D, q: QuadConfig, breakpoints: Iterable[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """All nodes and weights of the composite rule on one axis (read-only)."""
    return _segments_quadrature(tuple(_segment_edges(iv.lo, iv.hi, breakpoints)), q)


# The rules and identity audits read the same few axes many times per
# anchor (every rule integrates the same lines, and an identity report reads
# each split axis for f's grid and again for the mixed partial's), so the
# node arrays of recent axes are kept. gl_nodes computes each segment
# elementwise, so the rows of one segment of a split axis are, bit for bit,
# the nodes of that segment alone: a quadrant's block of a split grid is
# the quadrant's own grid. An entry of the default or refined
# configuration, split once, is at most 8 KB, so 128 entries stay under 1 MB.
@lru_cache(maxsize=128)
def _segments_quadrature(
    edges: tuple[float, ...], q: QuadConfig
) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = (a.ravel() for a in gl_nodes(edges[:-1], edges[1:], q))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def as_univariate(g) -> UnivariateFunction:
    if isinstance(g, UnivariateFunction):
        return g
    return UnivariateFunction(fn=g)


def as_bivariate(f) -> BivariateFunction:
    if isinstance(f, BivariateFunction):
        return f
    return BivariateFunction(fn=f)


def _sample(fn, vectorized: bool, *coords: np.ndarray) -> np.ndarray:
    """fn over coordinate arrays that broadcast against each other, shaped
    as their broadcast: one call if fn is vectorized, else one scalar call
    per element. A vectorized result that varies along fewer axes than the
    coordinates (a constant, or f of one variable) comes back as a
    zero-stride view of the broadcast shape."""
    if vectorized:
        shape = np.broadcast(*coords).shape
        out = np.asarray(fn(*coords), dtype=float)
        return out if out.shape == shape else np.broadcast_to(out, shape)
    coords = np.broadcast_arrays(*coords)
    out = np.empty(coords[0].shape, dtype=float)
    for idx in np.ndindex(out.shape):
        out[idx] = float(fn(*(c[idx] for c in coords)))
    return out


def sample_univariate(g, ts: np.ndarray) -> np.ndarray:
    """Evaluate g over a node array, honouring the vectorized promise."""
    g = as_univariate(g)
    return _sample(g.fn, g.vectorized, ts)


def sample_bivariate(f, T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """f over t and s coordinates that broadcast against each other (a
    meshgrid, or per-axis arrays such as ts[:, None] and ss[None, :])."""
    f = as_bivariate(f)
    return _sample(f.fn, f.vectorized, T, S)


def _hoist(f: BivariateFunction, field: str, t=None, s=None):
    """For sampling f's field ("fn" or "mixed_fn") in blocks: None if the
    field cannot hoist (expr's compiled functions can), has nothing to
    hoist, or a hoisted subtree raises; else at(t_rows, s_rows), f with
    field evaluated at t[t_rows] and s[s_rows] from the hoisted values at
    those rows (see the module docstring)."""
    hoist = getattr(getattr(f, field), "hoist", None)
    if hoist is None or not f.vectorized:
        return None
    try:
        at = hoist(t, s)
    except (EngineError, ArithmeticError):
        # sampling f as it is raises this where it always did
        return None
    if at is None:
        return None
    return lambda t_rows, s_rows: dataclasses.replace(f, **{field: at(t_rows, s_rows)})


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonFiniteSample(f"{bad} non-finite sample(s) while evaluating {what}")


def integrate_1d(
    g,
    iv: Interval1D,
    q: QuadConfig,
    breakpoints: Sequence[float] = (),
) -> float:
    """Composite Gauss-Legendre integral of g over iv.

    Panels are refined at the given breakpoints, which must lie inside the
    interval (outside values are ignored); use them to split integrands at
    known kinks so each panel sees a smooth function.
    """
    g = as_univariate(g)
    nodes, weights = _axis_quadrature(iv, q, breakpoints)
    vals = sample_univariate(g, nodes)
    _check_finite(vals, g.label)
    return float(weights @ vals)


def _row_blocks(rows: int, width: int, min_rows: int = 1) -> list[slice]:
    """Slices of whole rows of a grid `width` wide, each of at most
    BLOCK_SAMPLES values, or min_rows rows if that is more."""
    per_block = max(min_rows, BLOCK_SAMPLES // width)
    return [slice(k, k + per_block) for k in range(0, rows, per_block)]


def _reduction_grid(f: BivariateFunction, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """f on the outer grid ts x ss in the layout a quadrature reduction
    takes it: laid out in full, as matmul reduces a full grid in another
    order than a zero-stride one, unless f is a constant, which stays a
    zero-stride view. Each call of f receives a block of whole rows, at
    most BLOCK_SAMPLES values (two rows if a row is longer than half of
    that, so that a zero-stride block shows f varies along neither axis).
    Raises the first block's error, NonFiniteSample for a non-finite one."""
    shape = (len(ts), len(ss))
    out, value = None, None
    for rows in _row_blocks(*shape, min_rows=2):
        block = sample_bivariate(f, ts[rows, None], ss[None, :])
        _check_finite(block, f.label)
        if out is None:
            if not any(block.strides) and (value is None or value == block[0, 0]):
                value = block[0, 0]  # a constant so far: nothing to lay out
                continue
            out = np.empty(shape)
            if rows.start:
                out[:rows.start] = value
        out[rows] = block
    return np.broadcast_to(value, shape) if out is None else out


def split_grid(
    f,
    r: Rectangle,
    q: QuadConfig,
    split: Optional[EvalPoint] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tn, tw, sn, sw, values): the composite rule's nodes and weights on
    each axis of r, split at the lines through split, and f on their
    tensor grid, sampled in row blocks. `tw @ values @ sw` is the integral
    of f over r, and over a sub-rectangle whose sides are segments of the
    split, the same product over those rows and columns. An error is the
    one that sampling the whole grid in one call raises: after a block
    fails, the whole grid is sampled again."""
    f = as_bivariate(f)
    tn, tw = _axis_quadrature(r.t_axis, q, () if split is None else (split.x,))
    sn, sw = _axis_quadrature(r.s_axis, q, () if split is None else (split.y,))
    try:
        values = _reduction_grid(f, tn, sn)
    except Exception:
        _check_finite(sample_bivariate(f, tn[:, None], sn[None, :]), f.label)
        raise
    return tn, tw, sn, sw, values


def integrate_2d(
    f,
    r: Rectangle,
    q: QuadConfig,
    split: Optional[EvalPoint] = None,
) -> float:
    """Tensor-product composite Gauss-Legendre integral of f over r
    (split_grid reduced)."""
    _, tw, _, sw, values = split_grid(f, r, q, split)
    return float(tw @ values @ sw)


def grid_values(f, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """f on the outer grid ts x ss, shape (len(ts), len(ss)). Each call of f
    receives a block of ts against all of ss and returns at most
    BLOCK_SAMPLES values (one row if a row is longer)."""
    f = as_bivariate(f)
    out = np.empty((len(ts), len(ss)))
    for rows in _row_blocks(len(ts), len(ss)):
        out[rows] = sample_bivariate(f, ts[rows, None], ss[None, :])
    return out


def line_integrals(
    f,
    fixed_axis: str,
    fixed: Sequence[float],
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Integrals of f along the cross-sections t = fixed[l] (fixed_axis "t")
    or s = fixed[l] (fixed_axis "s"), over every segment k of a gl_nodes row.

    Entry (l, k) equals, bit for bit, integrate_1d of that cross-section over
    segment k. f receives the fixed coordinates along a leading axis and
    the nodes behind it, so a value that does not vary along a line stays a
    zero-stride row, as a scalar fixed coordinate would give it, and each
    row's dot product is the one `weights @ values` computes. Each call of
    f returns whole lines, at most BLOCK_SAMPLES values (blocks of one
    line's rows if a line is longer); with several blocks, f's subtrees of
    the node variable are evaluated once for all of them. A non-finite
    sample is reported with the first bad line's cross-section label and
    its count in that call.
    """
    f = as_bivariate(f)
    rows, width = nodes.shape
    lines_per_block = max(1, BLOCK_SAMPLES // (rows * width))
    row_blocks = _row_blocks(rows, width)
    fns = [f] * len(row_blocks)
    if len(fixed) > lines_per_block or len(row_blocks) > 1:
        # over the very node rows each block samples, before any line
        var = "s" if fixed_axis == "t" else "t"
        hoisted = [_hoist(f, "fn", **{var: nodes[rb]}) for rb in row_blocks]
        if None not in hoisted:
            every = slice(None)
            fns = [at(every, every) for at in hoisted]
    at = np.asarray(fixed, dtype=float)[:, None, None]
    out = np.empty((len(fixed), rows))
    for i in range(0, len(fixed), lines_per_block):
        x = at[i:i + lines_per_block]
        for rb, fn in zip(row_blocks, fns):
            block = nodes[rb]
            try:
                vals = sample_bivariate(fn, *((x, block) if fixed_axis == "t" else (block, x)))
            except Exception:
                if len(x) > 1:
                    # one line at a time, so that the first failing line
                    # raises what it would raise alone
                    for j in range(i, i + len(x)):
                        line_integrals(f, fixed_axis, fixed[j:j + 1], nodes, weights)
                raise
            sums = np.vecdot(weights[rb], vals)
            # the weights are finite, so a non-finite sample leaves its
            # line's sum non-finite: only then are the samples scanned
            if not np.isfinite(sums).all():
                finite = np.isfinite(vals).reshape(len(x), -1).all(axis=1)
                if not finite.all():
                    j = int(np.argmin(finite))
                    at_j = fixed[i + j]
                    _check_finite(vals[j], f"{f.label}({at_j}, .)" if fixed_axis == "t"
                                  else f"{f.label}(., {at_j})")
            out[i:i + len(x), rb] = sums
    return out


def default_fd_steps(r: Rectangle) -> tuple[float, float]:
    """cbrt(machine eps) scaled by axis length, balancing truncation
    against cancellation for the cross stencil."""
    return _FD_STEP * r.t_axis.length, _FD_STEP * r.s_axis.length


def sample_mixed(
    f: BivariateFunction,
    T: np.ndarray,
    S: np.ndarray,
    r: Optional[Rectangle],
    fd_fallback: bool = True,
    fd_steps: Optional[tuple] = None,
) -> np.ndarray:
    """Mixed-partial values at t and s coordinates that broadcast against
    each other: exact capability if present, else the finite-difference
    stencil when the fallback is allowed. The stencil steps are
    default_fd_steps(r) unless fd_steps gives them (arrays that broadcast
    against T and S give each cell its own)."""
    if f.has_exact_mixed:
        return _sample(f.mixed_fn, f.vectorized, T, S)
    if not fd_fallback:
        raise MissingMixedPartial(
            f"function {f.label!r} has no exact mixed partial and the "
            "finite-difference fallback is disabled"
        )
    h_t, h_s = default_fd_steps(r) if fd_steps is None else fd_steps
    fpp = sample_bivariate(f, T + h_t, S + h_s)
    fpm = sample_bivariate(f, T + h_t, S - h_s)
    fmp = sample_bivariate(f, T - h_t, S + h_s)
    fmm = sample_bivariate(f, T - h_t, S - h_s)
    return (fpp - fpm - fmp + fmm) / (4.0 * h_t * h_s)


def cell_bounds(
    f: BivariateFunction,
    t_edges: Sequence[float],
    s_edges: Sequence[float],
    grid_n: int,
    pad_rel: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled bounds on the mixed partial over every cell of a grid.

    Cell (i, j) is [t_edges[i], t_edges[i+1]] x [s_edges[j], s_edges[j+1]].
    Its bounds are the min/max over a grid_n x grid_n grid of the cell
    (boundary lines included), widened by pad_rel * (max - min) plus an
    absolute floor of 1e-12 on each side. Without an exact mixed partial
    each cell uses the stencil with its own default_fd_steps. Cells are
    sampled in row-major blocks of at most BLOCK_SAMPLES values (one cell
    if a cell grid is larger); with several blocks, the exact partial's
    subtrees of one variable are evaluated once over all cell rows of
    that axis. Returns (lower, upper), each of shape (m, n).
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    t_edges = np.asarray(t_edges, dtype=float)
    s_edges = np.asarray(s_edges, dtype=float)
    m, n = len(t_edges) - 1, len(s_edges) - 1
    # one linspace call for the cells of both axes: row k spans cell k
    starts = np.concatenate((t_edges[:-1], s_edges[:-1]))
    ends = np.concatenate((t_edges[1:], s_edges[1:]))
    samples = np.linspace(starts, ends, grid_n).T
    ts, ss = samples[:m], samples[m:]
    steps = _FD_STEP * (ends - starts)
    h_t, h_s = steps[:m], steps[m:]
    lo = np.empty(m * n)
    hi = np.empty(m * n)
    per_block = max(1, BLOCK_SAMPLES // (grid_n * grid_n))
    hoisted = None
    if m * n > per_block:
        hoisted = _hoist(f, "mixed_fn", t=ts[:, :, None], s=ss[:, None, :])
    for start in range(0, m * n, per_block):
        cells = np.arange(start, min(start + per_block, m * n))
        i, j = np.divmod(cells, n)
        fd_steps = (h_t[i, None, None], h_s[j, None, None])
        vals = sample_mixed(f if hoisted is None else hoisted(i, j), ts[i, :, None],
                            ss[j, None, :], None, fd_fallback=True, fd_steps=fd_steps)
        _check_finite(vals, f"mixed partial of {f.label}")
        lo[cells] = vals.min(axis=(1, 2))
        hi[cells] = vals.max(axis=(1, 2))
    pad = pad_rel * (hi - lo) + 1e-12
    lower = lo - pad
    upper = hi + pad
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidBounds("derivative bounds must be finite")
    return lower.reshape(m, n), upper.reshape(m, n)


def estimate_bounds(
    f: BivariateFunction,
    r: Rectangle,
    grid_n: int = 33,
    pad_rel: float = 0.05,
) -> DerivativeBounds:
    """Sampled bounds on the mixed partial over r, padded outward: the one
    cell of cell_bounds. Sampling cannot certify the true extremum, so
    results built on these bounds must be flagged non-rigorous by the
    caller.
    """
    lower, upper = cell_bounds(
        f, (r.t_axis.lo, r.t_axis.hi), (r.s_axis.lo, r.s_axis.hi), grid_n, pad_rel
    )
    return DerivativeBounds(lower[0, 0], upper[0, 0])
