"""The stacked recurrences against each trial's own tree.

`stacked` samples f, its mixed partial, g and g' of a chunk of trials with
Horner recurrences over arrays with a leading trial axis. Each recurrence
must take, step for step, the operations of the trial's own tree, the one
`to_bivariate(polynomial(f))` and `to_univariate(polynomial_1d(g))`
compile and differentiate, so every sample must have the bits that tree
gives on that trial's rows of the same coordinates. They are compared here
as float.hex, for every degree, for chunks of 1, 25 and 64 trials drawn as
verify draws them (most of them zero-padded to the chunk's degree, and one
a constant, padded in every row), and for one and two anchors. The test
names call each trial's own tree the template its recurrence repeats.
"""

from functools import lru_cache

import numpy as np
import pytest

from ostrocube import cli, stacked
from ostrocube.expr import polynomial, polynomial_1d, to_bivariate, to_univariate
from ostrocube.quadrature import gl_nodes


def _hex(values) -> list:
    return [value.hex() for value in np.asarray(values, dtype=float).ravel().tolist()]


@lru_cache(maxsize=None)
def _chunk(degree: int, size: int) -> tuple:
    """The trials of a chunk, each with its own f and g as the CLI builds
    them."""
    trials = [cli._draw_trial(700 + degree, k, degree, 0.4) for k in range(size)]
    if size > 1:
        trials[0] = trials[0]._replace(f=[[-0.375]], g=[0.625])
    return tuple((trial, to_bivariate(polynomial(trial.f)), to_univariate(polynomial_1d(trial.g)))
                 for trial in trials)


def _own(fns: list, shape: tuple, *coords: np.ndarray) -> np.ndarray:
    """fns[k] at the rows coords[...][k] of trial k, laid out in full over
    shape."""
    out = np.empty(shape)
    for k, fn in enumerate(fns):
        out[k] = fn(*(c[k] for c in coords))
    return out


def _grids_2d(trials: list, anchors: int) -> list:
    """The (t, s) coordinates of the three grids sample_2d samples: the
    mixed partial's bound grid, f's point and line grid, and f's split
    double-integral grids."""
    rect = np.array([trial.rect for trial in trials])
    t_lo, t_hi, s_lo, s_hi = rect.T
    xy = np.array([[trial.p, trial.q][:anchors] for trial in trials])
    x, y = xy[:, :, 0], xy[:, :, 1]
    axes = np.linspace(rect[:, 0::2], rect[:, 1::2], stacked.BOUNDS_GRID, axis=-1)
    ts = np.concatenate((x, rect[:, :2], gl_nodes(t_lo, t_hi, stacked.VERIFY_CFG)[0]), axis=1)
    ss = np.concatenate((y, rect[:, 2:], gl_nodes(s_lo, s_hi, stacked.VERIFY_CFG)[0]), axis=1)
    tn, _ = stacked._split_nodes(t_lo, x, t_hi)
    sn, _ = stacked._split_nodes(s_lo, y, s_hi)
    return [(axes[:, 0, :, None], axes[:, 1, None, :]), (ts[:, :, None], ss[:, None, :]),
            (tn[..., :, None], sn[..., None, :])]


@pytest.mark.parametrize("anchors", [1, 2])
@pytest.mark.parametrize("size", [1, 25, 64])
@pytest.mark.parametrize("degree", range(7))
def test_f_and_its_mixed_partial_equal_their_templates(degree, size, anchors):
    trials, fs, _ = zip(*_chunk(degree, size))
    coeffs = np.zeros((size, degree + 1, degree + 1))
    for row, trial in zip(coeffs, trials):
        for i, f_row in enumerate(trial.f):
            row[i, :len(f_row)] = f_row
    for t, s in _grids_2d(trials, anchors):
        shape = np.broadcast_shapes(t.shape, s.shape)
        out, value = np.empty(shape), np.empty(shape)
        assert stacked._f_grid(coeffs, t, s, out) is out
        assert _hex(out) == _hex(_own([f.fn for f in fs], shape, t, s))
        assert stacked._mixed_grid(coeffs, t, s, value, out) is out
        assert _hex(out) == _hex(_own([f.mixed_fn for f in fs], shape, t, s))


@pytest.mark.parametrize("size", [1, 25, 64])
@pytest.mark.parametrize("degree", range(7))
def test_g_and_its_derivative_equal_their_templates(degree, size):
    trials, _, gs = zip(*_chunk(degree, size))
    coeffs = np.zeros((size, degree + 1))
    for row, trial in zip(coeffs, trials):
        row[:len(trial.g)] = trial.g
    columns = coeffs.T[:, :, None]
    interval = np.array([trial.interval for trial in trials])
    lo, hi = interval.T
    x = np.array([trial.x for trial in trials])
    nodes, _ = gl_nodes(lo, hi, stacked.VERIFY_CFG)
    ts = np.concatenate((x[:, None], interval, nodes), axis=1)
    grid = np.linspace(lo, hi, stacked.DERIV_GRID, axis=-1)
    for points in (ts, grid):
        out, value = np.empty(points.shape), np.empty(points.shape)
        assert stacked._horner(columns, points, out) is out
        assert _hex(out) == _hex(_own([g.fn for g in gs], points.shape, points))
        assert stacked._horner_slope(columns, points, value, out) is out
        assert _hex(out) == _hex(_own([g.deriv_fn for g in gs], points.shape, points))
