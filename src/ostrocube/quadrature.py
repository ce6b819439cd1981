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
- a grid that a reduction reads whole (integrate_2d) is filled in row
  blocks too, so each call of f takes at most BLOCK_SAMPLES values; only
  the grid itself grows with the node count. Its error is the one the
  whole grid raises: after a block fails, the whole grid is sampled in
  one call again. integrate_2d and the identity audit reduce such a grid,
  when it can run into registers (below), without building it: the
  integral and the sums over given row and column ranges
  (_split_integrals).
- a step of one variable is evaluated once per coordinate array in a
  sampler call, not once per block, when a register run (below) takes
  several blocks: the run keeps the values of those steps that a
  full-grid step reads for the rest of the call, keyed by the array of t
  or s they were computed from, and skips the steps inside them on later
  blocks (expr.run_program given a memo). line_integrals hands every
  block of lines the same view of each row block of the nodes, so the
  steps of the node variable are evaluated once per row block and those
  of the fixed variable once per block of lines. cell_bounds runs blocks
  of whole rows of cells against one shared array of s samples (per
  column chunk, if a row of cells is longer than a block), so the steps
  of s are evaluated once per chunk and those of t once per block. The
  first block runs the whole program in order, so a failure is met where
  it always was; the small blocks, plain callables and wrappers evaluate
  f as it is.
- four samplers run a compiled f (or its exact mixed partial) into
  registers once a call takes more than BLOCK_SAMPLES values: each
  full-grid step of its program writes into a register, an array kept
  per thread (_kept, which also holds stacked's chunk grids and other
  kept buffers), so these runs fault in no new memory. line_integrals
  and cell_bounds reduce blocks of up to REGISTER_BLOCK_SAMPLES values
  as they come; an anchor's split grid of f (integrate_2d, the identity
  audit's quadrant integrals) and the identity oracle's kernel-weighted
  grid of the mixed partial, of at most REGISTER_BLOCK_SAMPLES values, are
  each one run, reduced at once into the integral and its quadrants
  (_register_sums). Nothing returned is a register. A register run raises
  numpy's floating-point errors instead of warning, and after any failure
  or a non-finite result the call is sampled again in blocks of
  BLOCK_SAMPLES (_in_registers): warnings, errors and non-finite counts
  are theirs. Plain callables, wrappers, grid_values and smaller calls
  keep blocks of BLOCK_SAMPLES values.

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

# Most values one call of an integrand returns to the grid routines
# (grid_values; integrate_2d and the identity oracle's sampling of the
# mixed partial for a plain callable, a grid of at most this many values
# or a failed register run; line_integrals and cell_bounds for a plain
# callable or small call); it keeps the evaluator's temporaries flat in
# the grid size and small enough for the heap to keep.
BLOCK_SAMPLES = 8192
# Most values one run of a compiled integrand takes into registers, buffers
# kept per thread (_kept), once a call takes more than BLOCK_SAMPLES values:
# blocks of line_integrals and of cell_bounds on an exact mixed partial (up
# to 8x fewer runs), and the whole grid of integrate_2d or of the identity
# oracle (an anchor's 256 x 256 split grid is exactly this many), which
# then fault in no new memory.
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
    view of it is asked for."""

    def __init__(self) -> None:
        self.flat: dict = {}


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
    return flat[:size].reshape(shape)


def _runs_into(f: BivariateFunction, field: str) -> bool:
    """Whether f's field ("fn" or "mixed_fn") can run into registers
    (expr's compiled functions can; a plain callable or a wrapper cannot)."""
    return f.vectorized and hasattr(getattr(f, field), "program")


def _raising():
    """numpy's error state with each floating-point error that it would
    report raised instead: a register run reports nothing itself, and the
    small blocks that sample again after it fails report what they did."""
    return np.errstate(**{k: v if v == "ignore" else "raise" for k, v in np.geterr().items()})


def _in_registers(ok: bool, run, *args):
    """run(*args), a sampler's register run, under _raising() if ok; None
    if not ok, or if the run fails or meets a floating-point error: the
    caller then samples in blocks of BLOCK_SAMPLES, which report it."""
    if not ok:
        return None
    try:
        with _raising():
            return run(*args)
    except (EngineError, ArithmeticError):
        return None


def _run_kept(fn, views: dict, memo: dict, *coords: np.ndarray) -> np.ndarray:
    """fn's program (see _runs_into) over coordinates that broadcast, as
    _sample gives them, run by expr.run_program with its full-grid steps in
    the registers of the block's shape (views, built once per shape and
    sampler call) and its steps of one variable kept in memo for the call.
    The result may be a register or a value in memo."""
    shape = np.broadcast(*coords).shape
    program = fn.program
    registers = views.get(shape)
    if registers is None or len(registers) < program.n_registers:
        registers = views[shape] = [_kept(_FIRST_REGISTER + k, shape)
                                    for k in range(program.n_registers)]
    out = np.asarray(expr.run_program(program, *coords, registers, memo), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape)


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


def _row_blocks(rows: int, width: int, min_rows: int = 1,
                cap: int = BLOCK_SAMPLES) -> list[slice]:
    """Slices of whole rows of a grid `width` wide, each of at most cap
    values, or min_rows rows if that is more."""
    per_block = max(min_rows, cap // width)
    return [slice(k, k + per_block) for k in range(0, rows, per_block)]


def _reduction_grid(f: BivariateFunction, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """f on the outer grid ts x ss in the layout a quadrature reduction
    takes it: laid out in full, as matmul reduces a full grid in another
    order than a zero-stride one, unless f is a constant, which stays a
    zero-stride view. Each call of f receives a block of whole rows, at
    most BLOCK_SAMPLES values (two rows if a row is longer than half of
    that, so that a zero-stride block shows f varies along neither axis).
    An error is the one that sampling the whole grid in one call raises:
    after a block fails, the whole grid is sampled again (NonFiniteSample
    for a non-finite sample)."""
    shape = (len(ts), len(ss))
    out, value = None, None
    try:
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
    except Exception:
        _check_finite(sample_bivariate(f, ts[:, None], ss[None, :]), f.label)
        raise
    return np.broadcast_to(value, shape) if out is None else out


def _block_sums(tw: np.ndarray, values: np.ndarray, sw: np.ndarray, blocks) -> list[float]:
    """tw[rows] @ values[rows, cols] @ sw[cols] over each (rows, cols) of
    blocks."""
    return [float(tw[rows] @ values[rows, cols] @ sw[cols]) for rows, cols in blocks]


def _register_sums(f: BivariateFunction, field: str, tn: np.ndarray, tw: np.ndarray,
                   sn: np.ndarray, sw: np.ndarray, blocks, factors: Optional[tuple] = None
                   ) -> Optional[list[float]]:
    """_block_sums of f's field ("fn" or "mixed_fn") on the outer grid
    tn x sn, times factors[0][:, None] * factors[1] if factors are given,
    from one register run; the grid is never built outside the registers.
    None unless the grid holds more than BLOCK_SAMPLES and at most
    REGISTER_BLOCK_SAMPLES values and the field runs into registers, and
    None if the run fails, meets a floating-point error or gives a
    non-finite sum: the caller then samples the grid in blocks, which
    report it. The blocks must cover the grid: the weights are positive and
    the factors finite, so finite sums prove every sample finite."""
    return _in_registers(BLOCK_SAMPLES < len(tn) * len(sn) <= REGISTER_BLOCK_SAMPLES
                         and _runs_into(f, field), _grid_sums, getattr(f, field),
                         tn, tw, sn, sw, blocks, factors)


def _grid_sums(fn, tn: np.ndarray, tw: np.ndarray, sn: np.ndarray, sw: np.ndarray, blocks,
               factors: Optional[tuple]) -> Optional[list[float]]:
    """_register_sums' run, in the layout _reduction_grid gives."""
    shape = (len(tn), len(sn))
    views: dict = {}
    values = _run_kept(fn, views, {}, tn[:, None], sn[None, :])
    if factors is not None or (any(values.strides) and not values.flags.c_contiguous):
        # the product with the factors, or f of one variable laid out in
        # full in C order as the blocks lay it out (np.array of the view
        # would keep its F order), in the first register the result leaves
        registers = views[shape]
        free = next((k for k, register in enumerate(registers)
                     if not np.may_share_memory(register, values)), len(registers))
        grid = _kept(_FIRST_REGISTER + free, shape)
        if factors is None:
            grid[...] = values
        else:
            np.multiply(factors[0][:, None], factors[1], out=grid)
            grid *= values
        values = grid
    sums = _block_sums(tw, values, sw, blocks)
    return sums if np.isfinite(sums).all() else None


def _split_integrals(f, r: Rectangle, q: QuadConfig, split: Optional[EvalPoint] = None,
                     blocks=()) -> list[float]:
    """The integral of f over r split at split (integrate_2d), then the
    integral over each sub-rectangle of blocks, a (rows, cols) of the grid
    of f on the split axes whose sides are segments of the split. A grid
    of more than BLOCK_SAMPLES and at most REGISTER_BLOCK_SAMPLES values of
    a compiled f is reduced from one register run (_register_sums); any
    other, or one whose run fails, is _reduction_grid's, and raises its
    error."""
    f = as_bivariate(f)
    tn, tw = _axis_quadrature(r.t_axis, q, () if split is None else (split.x,))
    sn, sw = _axis_quadrature(r.s_axis, q, () if split is None else (split.y,))
    blocks = ((slice(None), slice(None)), *blocks)
    sums = _register_sums(f, "fn", tn, tw, sn, sw, blocks)
    if sums is None:
        sums = _block_sums(tw, _reduction_grid(f, tn, sn), sw, blocks)
    return sums


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
    row's dot product is the one `weights @ values` computes. Each call of
    f returns whole lines, at most BLOCK_SAMPLES values (blocks of one
    line's rows if a line is longer). A call of more than BLOCK_SAMPLES
    values of a compiled f runs blocks of up to REGISTER_BLOCK_SAMPLES
    values into registers instead, which evaluate f's steps of the node
    variable once per row block of nodes; if one of them fails or meets a
    floating-point error, the whole call is sampled again in the small
    blocks, which report it. A non-finite sample is reported
    with the first bad line's cross-section label and its count in that
    call.
    """
    f = as_bivariate(f)
    out = _in_registers(len(fixed) * nodes.size > BLOCK_SAMPLES
                        and nodes.shape[1] <= REGISTER_BLOCK_SAMPLES and _runs_into(f, "fn"),
                        _line_integrals, f, fixed_axis, fixed, nodes, weights, True)
    if out is None:
        out = _line_integrals(f, fixed_axis, fixed, nodes, weights, kept=False)
    return out


def _line_integrals(f: BivariateFunction, fixed_axis: str, fixed: Sequence[float],
                    nodes: np.ndarray, weights: np.ndarray, kept: bool) -> np.ndarray:
    """line_integrals in blocks of BLOCK_SAMPLES values, or, if kept, of
    REGISTER_BLOCK_SAMPLES values run into registers; these raise on a
    failure too, but not what line_integrals reports."""
    cap = REGISTER_BLOCK_SAMPLES if kept else BLOCK_SAMPLES
    rows, width = nodes.shape
    lines_per_block = max(1, cap // (rows * width))
    # one view per row block, the same array for every block of lines, so
    # that a register run finds the steps of the node variable it kept
    row_blocks = [(rb, nodes[rb]) for rb in _row_blocks(rows, width, cap=cap)]
    views: dict = {}
    memo: dict = {}
    at = np.asarray(fixed, dtype=float)[:, None, None]
    out = np.empty((len(fixed), rows))
    for i in range(0, len(fixed), lines_per_block):
        x = at[i:i + lines_per_block]
        for rb, node_rows in row_blocks:
            coords = (x, node_rows) if fixed_axis == "t" else (node_rows, x)
            if kept:
                vals = _run_kept(f.fn, views, memo, *coords)
            else:
                try:
                    vals = sample_bivariate(f, *coords)
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
    no exact mixed partial. Cells are sampled in row-major blocks of at
    most BLOCK_SAMPLES values (one cell if a cell grid is larger). A
    compiled partial over more than BLOCK_SAMPLES values runs blocks of
    up to REGISTER_BLOCK_SAMPLES values into registers instead: whole rows
    of cells, or column chunks of one row if a row is longer, each laid
    out as (cell rows, cell columns, grid_n, grid_n) (see _cell_extremes).
    It is sampled again in the small blocks if one of them fails or meets
    a floating-point error. Returns (lower, upper), each of shape (m, n).
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
    extremes = _in_registers(m * n * grid_n * grid_n > BLOCK_SAMPLES
                             and grid_n * grid_n <= REGISTER_BLOCK_SAMPLES
                             and _runs_into(f, "mixed_fn"), _cell_extremes, f, ts, ss, True)
    if extremes is None:
        extremes = _cell_extremes(f, ts, ss, kept=False)
    lo, hi = extremes
    pad = pad_rel * (hi - lo) + 1e-12
    lower = lo - pad
    upper = hi + pad
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidBounds("derivative bounds must be finite")
    return lower, upper


def _cell_extremes(f: BivariateFunction, ts: np.ndarray, ss: np.ndarray,
                   kept: bool) -> tuple[np.ndarray, np.ndarray]:
    """The min and max of the mixed partial over the sample rows ts[i] x
    ss[j] of every cell (i, j), each of shape (m, n): by sample_mixed in
    row-major blocks of BLOCK_SAMPLES values, or, if kept, by the compiled
    exact partial run into registers, raising on any failure without
    counting it. A register block of at most REGISTER_BLOCK_SAMPLES values
    is whole rows of cells against one shared array of s samples, or a
    column chunk of one row if a row is longer, laid out as (cell rows,
    cell columns, grid_n, grid_n) so that each cell's samples are
    contiguous."""
    (m, grid_n), n = ts.shape, len(ss)
    lo = np.empty((m, n))
    hi = np.empty((m, n))
    if not kept:
        per_block = max(1, BLOCK_SAMPLES // (grid_n * grid_n))
        for start in range(0, m * n, per_block):
            cells = np.arange(start, min(start + per_block, m * n))
            i, j = np.divmod(cells, n)
            vals = sample_mixed(f, ts[i, :, None], ss[j, None, :])
            _check_finite(vals, f"mixed partial of {f.label}")
            lo.flat[cells] = vals.min(axis=(1, 2))
            hi.flat[cells] = vals.max(axis=(1, 2))
        return lo, hi
    rows_per_block = max(1, REGISTER_BLOCK_SAMPLES // (n * grid_n * grid_n))
    chunk = min(n, REGISTER_BLOCK_SAMPLES // (grid_n * grid_n))
    # one view per column chunk, the same array for every block, so that
    # the run finds the steps of s it kept
    chunks = [(cols, ss[None, cols, None, :])
              for cols in (slice(k, k + chunk) for k in range(0, n, chunk))]
    views: dict = {}
    memo: dict = {}
    for start in range(0, m, rows_per_block):
        rows = slice(start, start + rows_per_block)
        t = ts[rows, None, :, None]
        for cols, s in chunks:
            vals = _run_kept(f.mixed_fn, views, memo, t, s)
            lo[rows, cols] = vals.min(axis=(2, 3))
            hi[rows, cols] = vals.max(axis=(2, 3))
    # min and max take a NaN, and an infinity makes one of them infinite
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NonFiniteSample("a non-finite sample in a register run")
    return lo, hi


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
