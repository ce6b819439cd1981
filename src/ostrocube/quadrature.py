"""Reference numerical integration, and sampling of integrands and their
exact mixed partials.

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
the last bit as sampling full grids, because a reduction sees the layout
it would see from a full grid. Along a line, a value that does not vary
stays a zero-stride row, as a scalar fixed coordinate gives it; in a
split grid, a one-variable result is laid out in full and only a constant
stays a zero-stride view. (`np.vecdot` and matmul reduce zero-stride and
contiguous rows in different orders; min and max do not care.)

Three samplers take f, or its exact mixed partial, in blocks: the line
integrals (line_integrals), the sampled bounds of each cell (cell_bounds)
and a grid on the nodes of a rectangle split at an anchor, summed over
given blocks of it (_split_integrals: integrate_2d, and the identity
audit's quadrants of f and of the kernel-weighted mixed partial). Each has
one loop for every integrand:

- a compiled f (expr's functions, which carry a program) runs into
  registers, in blocks of up to REGISTER_BLOCK_SAMPLES values: each
  full-grid step of its program writes into an array kept per thread
  (_kept, which also holds stacked's chunk grids), so these runs fault in
  no new memory, and its steps of one variable are evaluated once per
  coordinate array in a call (expr.run_program given a memo). The lines
  of a block share one view of each row block of the nodes, and the cells
  of a block (whole rows of cells, or a column chunk of one row) one
  array of s samples. Nothing returned is a register.
- a plain callable or a wrapper is called by sample_bivariate or
  sample_mixed, in blocks of BLOCK_SAMPLES values, in the same loop.

One failure rule holds for both. When a block raises, or reduces to a
non-finite value, its units are sampled again one at a time, each in one
call: its lines in the order of the fixed coordinates, its cells in
row-major order, or the whole split grid. The first unit that fails raises
its error, which is the first guard that fails over it, or a
NonFiniteSample with its label and its count of non-finite values. What a
failure reports thus depends on the units only, not on the block size or
the kind of integrand. A unit that does not fail (a sum that overflowed
from finite samples) leaves the block's result as it is. numpy's own
floating-point warnings are left to the caller's error state; the CLI
ignores them.

Elementwise arithmetic gives each sample the same bits in any layout; the
one numpy exception, power's shortcuts for a scalar exponent, is applied
to array exponents too by the expression evaluator.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import expr
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
    "REGISTER_BLOCK_SAMPLES",
    "gl_rule",
    "gl_nodes",
    "integrate_1d",
    "integrate_2d",
    "grid_values",
    "line_integrals",
    "estimate_bounds",
    "cell_bounds",
    "sample_univariate",
    "sample_bivariate",
    "sample_mixed",
]

# Most values one call of a plain callable or a wrapper returns to the grid
# routines (grid_values, and the samplers' blocks); it keeps the
# temporaries flat in the grid size and small enough for the heap to keep.
BLOCK_SAMPLES = 8192
# Most values one run of a compiled integrand takes into registers, buffers
# kept per thread (_kept), in the samplers' blocks: an anchor's 256 x 256
# split grid is exactly this many, and runs that fill the registers fault in
# no new memory.
REGISTER_BLOCK_SAMPLES = 1 << 16


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
    lo: np.ndarray, hi: np.ndarray, q: QuadConfig, out: Optional[tuple] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Composite-rule nodes and weights of every segment [lo[k], hi[k]].

    Returns two arrays of shape lo.shape + (panels * gl_order,): row k holds
    the panels of segment k left to right, each panel's nodes mid + half *
    reference node and weights half * reference weight. With out, a pair
    of C-ordered arrays of that shape, they are written into those.
    """
    rule = gl_rule(q.gl_order)
    lo = np.asarray(lo, dtype=float)[..., None]
    step = (np.asarray(hi, dtype=float)[..., None] - lo) / q.panels
    half = 0.5 * step
    mid = lo + np.arange(q.panels) * step + half
    panels = mid.shape + rule.nodes.shape
    if out is None:
        out = np.empty(panels), np.empty(panels)
    nodes, weights = (a.reshape(panels) for a in out)
    np.add(mid[..., None], half[..., None] * rule.nodes, out=nodes)
    np.multiply(half[..., None], rule.weights, out=weights)
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


def _split_axis(iv: Interval1D, q: QuadConfig, split: Optional[float] = None
                ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The nodes and weights of iv, split at split if given
    (_axis_quadrature), and how many of them lie in each part: in [iv.lo,
    split] and in [split, iv.hi], a segment each, or 0 for a part of zero
    width (a split on an end of iv, which is then not split); all of them,
    in one part, if split is None."""
    nodes, weights = _axis_quadrature(iv, q, () if split is None else (split,))
    n = len(nodes)
    if split is None:
        return nodes, weights, (n,)
    sizes = (0, n) if split <= iv.lo else (n, 0) if split >= iv.hi else (n // 2, n // 2)
    return nodes, weights, sizes


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


class _Kept(threading.local):
    """The flat buffers kept per thread, by key, each grown when a larger
    view of it is asked for, and the register views of recent block shapes
    (_registers), dropped whenever a buffer grows."""

    def __init__(self) -> None:
        self.flat: dict = {}
        self.views: dict = {}


_KEPT = _Kept()
# kept buffers 0 and 1 are stacked's chunk grids; the registers of a
# compiled run are buffers _FIRST_REGISTER, _FIRST_REGISTER + 1, ...; the
# other users key theirs by name
_FIRST_REGISTER = 2
# values a kept buffer holds at least: 256 KiB, which glibc's malloc maps
# apart from the heap (from 128 KiB by default), so that a buffer kept for
# the life of the thread never splits the heap space that the arrays of
# one call free for the next; pages never written take no memory
_KEPT_MIN = 1 << 15


def _kept(key, shape: tuple) -> np.ndarray:
    """Kept buffer key of this thread, viewed as shape. What it holds is
    written again by the next use: a value returned from it is copied or
    reduced first."""
    size = math.prod(shape)
    flat = _KEPT.flat.get(key)
    if flat is None or flat.size < size:
        flat = _KEPT.flat[key] = np.empty(max(size, _KEPT_MIN))
        _KEPT.views.clear()  # some may view the buffer this one replaces
    return flat[:size].reshape(shape)


def _registers(n: int, shape: tuple) -> list:
    """The first n registers of this thread, viewed as shape. The views of
    up to 256 shapes are kept, so that a run of a small block does not
    spend more on building them than on its arithmetic."""
    views = _KEPT.views.get(shape)
    if views is None or len(views) < n:
        if len(_KEPT.views) >= 256:
            _KEPT.views.clear()
        views = [_kept(_FIRST_REGISTER + k, shape) for k in range(n)]
        _KEPT.views[shape] = views
    return views


def _sampled(f: BivariateFunction, field: str, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f's field, "fn" (sample_bivariate) or "mixed_fn" (sample_mixed), at
    coordinates that broadcast, in one call."""
    return sample_bivariate(f, t, s) if field == "fn" else sample_mixed(f, t, s)


def _sampler(f: BivariateFunction, field: str):
    """(block size, sample) of a sampler's loop over f's field ("fn" or
    "mixed_fn"), sample(t, s) taking coordinates that broadcast: a compiled
    field runs into registers (_run_kept), with its steps of one variable
    kept for the call; a plain callable or a wrapper is _sampled."""
    fn = getattr(f, field)
    if f.vectorized and hasattr(fn, "program"):
        memo: dict = {}
        return REGISTER_BLOCK_SAMPLES, lambda t, s: _run_kept(fn, memo, t, s)
    return BLOCK_SAMPLES, lambda t, s: _sampled(f, field, t, s)


def _run_kept(fn, memo: dict, *coords: np.ndarray) -> np.ndarray:
    """fn's program over coordinates that broadcast, as _sample gives them,
    run by expr.run_program with its full-grid steps in the registers of
    the block's shape and its steps of one variable kept in memo for the
    call. The result may be a register or a value in memo."""
    shape = np.broadcast(*coords).shape
    program = fn.program
    out = np.asarray(expr.run_program(program, *coords, _registers(program.n_registers, shape),
                                      memo), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonFiniteSample(f"{bad} non-finite sample(s) while evaluating {what}")


def _under_rule(block, f: BivariateFunction, field: str, units):
    """block(), one block of a sampler's loop over f's field, under the
    failure rule: if it raises or returns a non-finite value, each of
    units, (label, t, s) in order, is sampled on its own in one call, and
    the first that fails raises its error, or NonFiniteSample with its
    label and count. The block's error is raised if none fails."""
    try:
        out = block()
    except Exception:
        for label, t, s in units:
            _check_finite(_sampled(f, field, t, s), label)
        raise
    if not np.isfinite(out).all():
        for label, t, s in units:
            _check_finite(_sampled(f, field, t, s), label)
    return out


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


def _row_blocks(rows: int, width: int, min_rows: int = 1,
                cap: int = BLOCK_SAMPLES) -> list[slice]:
    """Slices of whole rows of a grid `width` wide, each of at most cap
    values, or min_rows rows if that is more."""
    per_block = max(min_rows, cap // width)
    return [slice(k, k + per_block) for k in range(0, rows, per_block)]


def _reduction_grid(f: BivariateFunction, ts: np.ndarray, ss: np.ndarray, field: str = "fn",
                    factors: Optional[tuple] = None) -> np.ndarray:
    """f's field ("fn" or "mixed_fn") on the outer grid ts x ss, times
    factors[0][:, None] * factors[1] if factors are given, in the layout a
    quadrature reduction takes it: laid out in full in C order, as matmul
    reduces a full grid in another order than a zero-stride one, unless it
    is a constant without factors, which stays a zero-stride view. It is
    sampled in blocks of whole rows (_sampler; two rows if a row is longer
    than half a block, so that a zero-stride block shows f varies along
    neither axis). The grid may be a buffer kept per thread, or a
    register: reduce it before the next sampler call."""
    cap, sample = _sampler(f, field)
    shape = (len(ts), len(ss))
    blocks = _row_blocks(*shape, min_rows=2, cap=cap)
    out, value = None, None
    for rows in blocks:
        block = sample(ts[rows, None], ss[None, :])
        if out is None:
            if (factors is None and not any(block.strides)
                    and (value is None or value == block[0, 0])):
                value = block[0, 0]  # a constant so far: nothing to lay out
                continue
            if len(blocks) == 1 and factors is None and block.flags.c_contiguous:
                return block
            out = _kept("grid", shape)
            if rows.start:
                out[:rows.start] = value
        if factors is None:
            out[rows] = block
        else:
            np.multiply(factors[0][rows, None], factors[1], out=out[rows])
            out[rows] *= block
    return np.broadcast_to(value, shape) if out is None else out


def _block_sums(tw: np.ndarray, values: np.ndarray, sw: np.ndarray, blocks) -> list[float]:
    """tw[rows] @ values[rows, cols] @ sw[cols] over each (rows, cols) of
    blocks."""
    return [float(tw[rows] @ values[rows, cols] @ sw[cols]) for rows, cols in blocks]


def _split_integrals(f, r: Rectangle, q: QuadConfig, split: Optional[EvalPoint] = None,
                     blocks=((slice(None), slice(None)),), field: str = "fn",
                     factors: Optional[tuple] = None) -> list[float]:
    """_block_sums over each (rows, cols) of blocks of the grid of f's field
    ("fn" or "mixed_fn") on r's nodes split at split, times factors[0][:,
    None] * factors[1] if per-axis factors are given (_reduction_grid); by
    default the whole grid, the integral over r (integrate_2d). The blocks
    must cover the grid: the weights are positive and the factors finite,
    so a non-finite sample leaves a sum non-finite. The whole grid is one
    unit of the failure rule."""
    f = as_bivariate(f)
    tn, tw = _axis_quadrature(r.t_axis, q, () if split is None else (split.x,))
    sn, sw = _axis_quadrature(r.s_axis, q, () if split is None else (split.y,))
    label = f.label if field == "fn" else f"mixed partial of {f.label}"
    return _under_rule(lambda: _block_sums(tw, _reduction_grid(f, tn, sn, field, factors), sw,
                                           blocks),
                       f, field, [(label, tn[:, None], sn[None, :])])


def integrate_2d(
    f,
    r: Rectangle,
    q: QuadConfig,
    split: Optional[EvalPoint] = None,
) -> float:
    """Tensor-product composite Gauss-Legendre integral of f over r
    (see _split_integrals)."""
    return _split_integrals(f, r, q, split)[0]


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
    row's dot product is the one `weights @ values` computes. Each block
    holds whole lines, or row blocks of one line if a line is longer than
    a block (_sampler); the row blocks are the same views for every block
    of lines, so a register run evaluates f's steps of the node variable
    once per row block. Each line is a unit of the failure rule, labelled
    with its cross-section, f(x, .) or f(., y).
    """
    f = as_bivariate(f)
    cap, sample = _sampler(f, "fn")
    rows, width = nodes.shape
    lines_per_block = max(1, cap // (rows * width))
    row_blocks = [(rb, nodes[rb]) for rb in _row_blocks(rows, width, cap=cap)]
    at = np.asarray(fixed, dtype=float)[:, None, None]

    def line(j: int) -> tuple:
        if fixed_axis == "t":
            return f"{f.label}({fixed[j]}, .)", at[j], nodes
        return f"{f.label}(., {fixed[j]})", nodes, at[j]

    out = np.empty((len(fixed), rows))
    for i in range(0, len(fixed), lines_per_block):
        x = at[i:i + lines_per_block]
        for rb, node_rows in row_blocks:
            coords = (x, node_rows) if fixed_axis == "t" else (node_rows, x)
            out[i:i + len(x), rb] = _under_rule(lambda: np.vecdot(weights[rb], sample(*coords)),
                                                f, "fn", map(line, range(i, i + len(x))))
    return out


def _axis_lines(f, fixed_axis: str, fixed: Sequence[float], iv: Interval1D, q: QuadConfig,
                split: Optional[float] = None) -> np.ndarray:
    """line_integrals of the cross-sections of f at each fixed coordinate
    over each part of iv (_split_axis), shape (len(fixed), parts): over iv,
    or over [iv.lo, split] and [split, iv.hi], where a part of zero width
    gives exactly 0.0 and is not sampled."""
    nodes, weights, sizes = _split_axis(iv, q, split)
    parts = [k for k, size in enumerate(sizes) if size]
    lines = line_integrals(f, fixed_axis, fixed, nodes.reshape(len(parts), -1),
                           weights.reshape(len(parts), -1))
    if len(parts) == len(sizes):
        return lines
    out = np.zeros((len(fixed), len(sizes)))
    out[:, parts] = lines
    return out


def sample_mixed(f: BivariateFunction, T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """f's exact mixed partial at t and s coordinates that broadcast against
    each other; MissingMixedPartial if f carries none."""
    if not f.has_exact_mixed:
        raise MissingMixedPartial(f"function {f.label!r} carries no exact mixed partial")
    return _sample(f.mixed_fn, f.vectorized, T, S)


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
    absolute floor of 1e-12 on each side; MissingMixedPartial if f carries
    no exact mixed partial. Each block (_sampler) holds whole rows of
    cells against one shared array of s samples, or a column chunk of one
    row if a row is longer than a block (one cell if a cell is), laid out
    as (cell rows, cell columns, grid_n, grid_n). Each cell is a unit of
    the failure rule. Returns (lower, upper), each of shape (m, n).
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
    cap, sample = _sampler(f, "mixed_fn")
    rows_per_block = max(1, cap // (n * grid_n * grid_n))
    chunk = max(1, min(n, cap // (grid_n * grid_n)))
    # one view per column chunk, the same array for every block, so that a
    # register run finds the steps of s it kept
    chunks = [(cols, ss[None, cols, None, :])
              for cols in (slice(k, k + chunk) for k in range(0, n, chunk))]
    label = f"mixed partial of {f.label}"
    lo = np.empty((m, n))
    hi = np.empty((m, n))
    for start in range(0, m, rows_per_block):
        rows = slice(start, start + rows_per_block)
        t = ts[rows, None, :, None]
        for cols, s in chunks:
            def extremes() -> tuple:
                vals = sample(t, s)
                return vals.min(axis=(2, 3)), vals.max(axis=(2, 3))

            cells = ((label, ts[i, :, None], ss[j, None, :])
                     for i in range(m)[rows] for j in range(n)[cols])
            lo[rows, cols], hi[rows, cols] = _under_rule(extremes, f, "mixed_fn", cells)
    pad = pad_rel * (hi - lo) + 1e-12
    lower = lo - pad
    upper = hi + pad
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidBounds("derivative bounds must be finite")
    return lower, upper


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
