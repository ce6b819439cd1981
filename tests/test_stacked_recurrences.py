"""The stacked recurrences against the template programs they repeat.

`stacked` samples f, its mixed partial, g and g' of a chunk of trials with
Horner recurrences over arrays with a leading trial axis. Each recurrence
must take, step for step, the operations of the stacked template program
of its degree (`helpers.templates`) run with the trials' coefficients in
its slots, so every sample must have the template's bits. They are
compared here as float.hex, for every degree, for chunks of 1, 25 and 64
trials drawn as verify draws them (most of them zero-padded to the
chunk's degree, and one a constant, padded in every row), and for one
and two anchors.
"""

import numpy as np
import pytest

from helpers import templates
from ostrocube import cli, stacked
from ostrocube.expr import run_program
from ostrocube.quadrature import gl_nodes


def _hex(values) -> list:
    return [value.hex() for value in np.asarray(values, dtype=float).ravel().tolist()]


def _chunk(degree: int, size: int) -> list:
    trials = [cli._draw_trial(700 + degree, k, degree, 0.4) for k in range(size)]
    if size > 1:
        trials[0] = trials[0]._replace(f=[[-0.375]], g=[0.625])
    return trials


def _coefficients_2d(trials: list, n: int) -> np.ndarray:
    coeffs = np.zeros((len(trials), n, n))
    for row, trial in zip(coeffs, trials):
        for i, f_row in enumerate(trial.f):
            row[i, :len(f_row)] = f_row
    return coeffs


def _template(program, t, s, slots: np.ndarray, shape: tuple) -> np.ndarray:
    """program at t and s with slots[:, j] (one entry per trial) in slot j,
    laid out in full over shape."""
    columns = slots.T.reshape(slots.shape[1:] + slots.shape[:1] + (1,) * (np.ndim(t) - 1))
    return np.broadcast_to(run_program(program, t, s, columns), shape)


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
    program_f, program_mixed, _, _ = templates(degree)
    trials = _chunk(degree, size)
    coeffs = _coefficients_2d(trials, degree + 1)
    slots = coeffs.reshape(size, -1)
    for t, s in _grids_2d(trials, anchors):
        shape = np.broadcast_shapes(t.shape, s.shape)
        out, value = np.empty(shape), np.empty(shape)
        assert stacked._f_grid(coeffs, t, s, out) is out
        assert _hex(out) == _hex(_template(program_f, t, s, slots, shape))
        assert stacked._mixed_grid(coeffs, t, s, value, out) is out
        assert _hex(out) == _hex(_template(program_mixed, t, s, slots, shape))


@pytest.mark.parametrize("size", [1, 25, 64])
@pytest.mark.parametrize("degree", range(7))
def test_g_and_its_derivative_equal_their_templates(degree, size):
    _, _, program_g, program_dg = templates(degree)
    trials = _chunk(degree, size)
    slots = np.zeros((size, degree + 1))
    for row, trial in zip(slots, trials):
        row[:len(trial.g)] = trial.g
    columns = slots.T[:, :, None]
    interval = np.array([trial.interval for trial in trials])
    lo, hi = interval.T
    x = np.array([trial.x for trial in trials])
    nodes, _ = gl_nodes(lo, hi, stacked.VERIFY_CFG)
    ts = np.concatenate((x[:, None], interval, nodes), axis=1)
    grid = np.linspace(lo, hi, stacked.DERIV_GRID, axis=-1)
    for points in (ts, grid):
        out, value = np.empty(points.shape), np.empty(points.shape)
        assert stacked._horner(columns, points, out) is out
        assert _hex(out) == _hex(_template(program_g, points, 0.0, slots, points.shape))
        assert stacked._horner_slope(columns, points, value, out) is out
        assert _hex(out) == _hex(_template(program_dg, points, 0.0, slots, points.shape))
