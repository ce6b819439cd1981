"""The two-variable samplers take f in row blocks, and an identity report
samples f once on its anchor's split grid.

integrate_2d and identity_report hand f, and the mixed partial, at most
BLOCK_SAMPLES values per call. The report reduces the anchor's split
double integral and the four quadrant integrals from one grid, and the
four quadrant oracles from one sampling of the mixed partial; each value
must equal, bit for bit, the one its own grid gives (integrate_2d over the
quadrant, quadrant_oracle). An error must be the one sampling the whole
grid at once raises, even where the blocks meet the failures in another
order.
"""

import dataclasses

import numpy as np
import pytest

from helpers import reference_integrate_2d
from ostrocube import QuadConfig, make_point, make_rectangle, parse_expression, to_bivariate
from ostrocube.core import BivariateFunction, PointOutsideDomain
from ostrocube.identity import (
    Quadrant,
    _quadrant_rect,
    _quadrant_samples,
    identity_report,
    kernel_weighted_integral,
    quadrant_oracle,
)
from ostrocube.quadrature import (
    BLOCK_SAMPLES,
    _axis_quadrature,
    _reduction_grid,
    integrate_2d,
    sample_bivariate,
)

Q = QuadConfig()
UNIT = make_rectangle(0.0, 1.0, 0.0, 1.0)
RECT = make_rectangle(-0.25, 0.75, 0.1, 1.3)
TEXTS = ("exp(t*s)", "sin(t)*cos(s)", "0.7*t*s^3 - 0.4*t^2*s + 0.5*t^3", "1", "sin(t)",
         "exp(s)")
# interior, on an edge of each axis, on corners
ANCHORS = ((0.3, 0.6), (0.0, 0.6), (1.0, 0.6), (0.3, 0.0), (0.3, 1.0), (0.0, 0.0), (1.0, 0.0),
           (1.0, 1.0))
# two guards that fail in different row blocks, in the reverse of their
# order in the expression: sqrt near (0.8, 0.3), log near (0.15, 0.3), and
# neither on the anchor lines of (0.3, 0.6) or on an edge
TWO_GUARDS = "sqrt((t-0.8)^2+(s-0.3)^2-0.001)+log((t-0.15)^2+(s-0.3)^2-0.001)"


def _f(text: str) -> BivariateFunction:
    return to_bivariate(parse_expression(text))


def _raised(call) -> tuple:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class _Recording:
    """A callable that records the coordinates of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, t, s):
        self.calls.append(np.broadcast_arrays(t, s))
        return self.fn(t, s)

    def sizes(self) -> list:
        return [t.size for t, _ in self.calls]


def _recorded(text: str) -> BivariateFunction:
    f = _f(text)
    return dataclasses.replace(f, fn=_Recording(f.fn), mixed_fn=_Recording(f.mixed_fn))


@pytest.mark.parametrize("text", TEXTS)
def test_no_call_of_f_or_its_mixed_partial_takes_more_than_a_block(text):
    f = _recorded(text)
    integrate_2d(f, RECT, Q)
    integrate_2d(f, RECT, Q, split=make_point(RECT, 0.1, 0.4))
    identity_report(f, UNIT, make_point(UNIT, 0.3, 0.6), Q)
    assert f.fn.calls and f.mixed_fn.calls
    assert max(f.fn.sizes() + f.mixed_fn.sizes()) <= BLOCK_SAMPLES
    # the 256 x 256 split grids are 65536 samples each
    assert sum(f.fn.sizes()) > 2 * 65536 and sum(f.mixed_fn.sizes()) == 65536


@pytest.mark.parametrize("x, y", [(0.3, 0.6), (0.0, 0.6), (1.0, 1.0)])
def test_identity_report_samples_f_on_the_split_grid_once(x, y):
    f = _recorded("exp(t*s)")
    pt = make_point(UNIT, x, y)
    identity_report(f, UNIT, pt, Q)
    tn, _ = _axis_quadrature(UNIT.t_axis, Q, (x,))
    sn, _ = _axis_quadrature(UNIT.s_axis, Q, (y,))
    times = np.zeros((len(tn), len(sn)), dtype=int)
    for t, s in f.fn.calls:
        t, s = t.ravel(), s.ravel()
        on = np.isin(t, tn) & np.isin(s, sn)
        np.add.at(times, (np.searchsorted(tn, t[on]), np.searchsorted(sn, s[on])), 1)
    assert (times == 1).all()


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("x, y", ANCHORS)
def test_shared_grid_values_equal_their_own_grids(text, x, y):
    f = _f(text)
    pt = make_point(UNIT, x, y)
    terms, _, _, double = _quadrant_samples(f, UNIT, pt, Q)
    assert terms.double.hex() == integrate_2d(f, UNIT, Q, split=pt).hex()
    for quad in Quadrant:
        sub = _quadrant_rect(UNIT, pt, quad)
        expected = 0.0 if sub is None else integrate_2d(f, sub, Q)
        assert double[quad].hex() == expected.hex(), quad
    per_quadrant = identity_report(f, UNIT, pt, Q).per_quadrant
    for quad in Quadrant:
        expected = quadrant_oracle(f, UNIT, pt, quad, Q)
        assert per_quadrant[quad].oracle.hex() == expected.hex(), quad


@pytest.mark.parametrize("x, y", [(0.3, 0.6), (0.0, 0.6), (1.0, 0.0)])
def test_kernel_weighted_integral_of_a_plain_callable_sums_the_quadrant_oracles(x, y):
    # a plain callable's mixed partial is sampled in row blocks
    f = BivariateFunction(fn=lambda t, s: np.exp(t * s) + t * t * s,
                          mixed_fn=lambda t, s: np.exp(t * s) * (1.0 + t * s) + 2.0 * t,
                          vectorized=True)
    pt = make_point(UNIT, x, y)
    expected = sum(quadrant_oracle(f, UNIT, pt, quad, Q) for quad in Quadrant)
    assert kernel_weighted_integral(f, UNIT, pt, Q).hex() == expected.hex()


@pytest.mark.parametrize("text", TEXTS)
def test_blocked_integral_equals_the_whole_grid(text):
    f = _f(text)
    for split in (None, make_point(RECT, 0.1, 0.4), make_point(RECT, -0.25, 1.3)):
        assert integrate_2d(f, RECT, Q, split).hex() == \
            reference_integrate_2d(f, RECT, Q, split).hex()


def test_a_constant_stays_a_zero_stride_view():
    tn, _ = _axis_quadrature(UNIT.t_axis, Q)
    sn, _ = _axis_quadrature(UNIT.s_axis, Q)
    values = _reduction_grid(_f("2.5"), tn, sn)
    assert values.shape == (128, 128) and values.strides == (0, 0)
    for text in ("sin(t)", "exp(s)", "exp(t*s)"):
        values = _reduction_grid(_f(text), tn, sn)
        assert values.flags.c_contiguous, text


def test_blocked_grid_raises_the_error_of_the_whole_grid():
    f = _f(TWO_GUARDS)
    tn, _ = _axis_quadrature(UNIT.t_axis, Q)
    sn, _ = _axis_quadrature(UNIT.s_axis, Q)
    # the first row block meets the log guard, the whole grid the sqrt one
    rows = BLOCK_SAMPLES // len(sn)
    assert rows < len(tn)
    first_block = _raised(lambda: sample_bivariate(f, tn[:rows, None], sn[None, :]))
    whole = _raised(lambda: sample_bivariate(f, tn[:, None], sn[None, :]))
    assert first_block[1] == "log of a non-positive value"
    assert whole[1] == "sqrt of a negative value"
    assert _raised(lambda: integrate_2d(f, UNIT, Q)) == whole
    assert _raised(lambda: integrate_2d(f, UNIT, Q, split=make_point(UNIT, 0.3, 0.6))) == whole


def test_blocked_grid_counts_the_non_finite_samples_of_the_whole_grid():
    # exp overflows on three node rows at each end, in the first and the
    # last row block
    f = _f("exp(3000*(t-0.5)^2)*s")
    tn, _ = _axis_quadrature(UNIT.t_axis, Q)
    sn, _ = _axis_quadrature(UNIT.s_axis, Q)
    rows = BLOCK_SAMPLES // len(sn)
    with np.errstate(over="ignore", invalid="ignore"):
        first_block = sample_bivariate(f, tn[:rows, None], sn[None, :])
        message = _raised(lambda: integrate_2d(f, UNIT, Q))[1]
    assert np.count_nonzero(~np.isfinite(first_block)) == 3 * 128
    assert message == "768 non-finite sample(s) while evaluating exp(3000 * (t - 0.5)^2) * s"


def test_identity_report_raises_what_its_whole_grids_raise():
    # each split grid is one unit of the failure rule, sampled in one call,
    # not its quadrants one by one: the first quadrant meets the log guard
    pt = make_point(UNIT, 0.3, 0.6)
    f = _f(TWO_GUARDS)
    first_quadrant = _raised(lambda: integrate_2d(f, _quadrant_rect(UNIT, pt, Quadrant.LL), Q))
    assert first_quadrant[1] == "log of a non-positive value"
    whole = _raised(lambda: reference_integrate_2d(f, UNIT, Q, split=pt))
    assert whole[1] == "sqrt of a negative value"
    assert _raised(lambda: identity_report(f, UNIT, pt, Q)) == whole
    # the mixed partial overflows in three quadrants (4 samples in the
    # first), and the oracle counts the whole grid's
    f = _f("exp(354*(t+s))")
    pt = make_point(UNIT, 0.99, 0.99)
    mixed = BivariateFunction(fn=f.mixed_fn, vectorized=True, label=f"mixed partial of {f.label}")
    with np.errstate(all="ignore"):
        first_quadrant = _raised(lambda: quadrant_oracle(f, UNIT, pt, Quadrant.LL, Q))
        whole = _raised(lambda: reference_integrate_2d(mixed, UNIT, Q, split=pt))
        assert _raised(lambda: identity_report(f, UNIT, pt, Q)) == whole
    assert first_quadrant[1].startswith("4 non-finite sample(s) while evaluating mixed partial")
    assert whole[1].startswith("17226 non-finite sample(s) while evaluating mixed partial")


def test_an_anchor_outside_the_rectangle_is_rejected():
    # the split grid covers the rectangle only
    f, pt = _f("exp(t*s)"), make_point(RECT, -0.1, 0.5)
    with pytest.raises(PointOutsideDomain):
        identity_report(f, UNIT, pt, Q)
    with pytest.raises(PointOutsideDomain):
        kernel_weighted_integral(f, UNIT, pt, Q)
