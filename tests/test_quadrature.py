import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ostrocube import (
    BivariateFunction,
    Interval1D,
    NonFiniteSample,
    QuadConfig,
    UnivariateFunction,
    UnsupportedOrder,
    estimate_bounds,
    gl_rule,
    integrate_1d,
    integrate_2d,
    make_rectangle,
    parse_expression,
    to_bivariate,
)
from ostrocube.expr import XorShift64Star, random_polynomial, to_string
from ostrocube.quadrature import sample_mixed

Q = QuadConfig()


def test_gl_rule_order_2_closed_form():
    rule = gl_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gl_rule_order_3_closed_form():
    rule = gl_rule(3)
    assert rule.nodes == pytest.approx(
        [-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)], abs=1e-15
    )
    assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)


@pytest.mark.parametrize("order", [2, 3, 5, 8, 13, 16, 21, 32, 47, 64])
def test_gl_rule_invariants(order):
    rule = gl_rule(order)
    assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-12
    assert np.all(rule.weights > 0)
    assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-15)
    assert np.all(np.diff(rule.nodes) > 0)
    # parabola moment reproduced at every order
    assert float(rule.weights @ rule.nodes**2) == pytest.approx(2 / 3, abs=1e-14)


@pytest.mark.parametrize("order", [2, 5, 16, 40, 64])
def test_gl_rule_matches_numpy(order):
    rule = gl_rule(order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    assert rule.nodes == pytest.approx(nodes, abs=5e-14)
    assert rule.weights == pytest.approx(weights, abs=5e-14)


# md5 of the bytes of gl_rule(n).nodes and .weights for n = 2..64, as the
# rule computed them before its recurrence was written once
GL_RULE_MD5 = json.loads((Path(__file__).parent / "data" / "gl_rule_md5.json").read_text())


def test_gl_rule_digests():
    assert sorted(map(int, GL_RULE_MD5)) == list(range(2, 65))
    for n, (nodes_md5, weights_md5) in GL_RULE_MD5.items():
        rule = gl_rule(int(n))
        assert hashlib.md5(rule.nodes.tobytes()).hexdigest() == nodes_md5, n
        assert hashlib.md5(rule.weights.tobytes()).hexdigest() == weights_md5, n


def test_gl_rule_rejects_out_of_range_orders():
    with pytest.raises(UnsupportedOrder):
        gl_rule(1)
    with pytest.raises(UnsupportedOrder):
        gl_rule(65)


@pytest.mark.parametrize("order", [2, 3, 4, 6, 10])
def test_gl_exactness_up_to_degree(order):
    iv = Interval1D(-1.0, 1.0)
    cfg = QuadConfig(gl_order=order, panels=1)
    for degree in range(2 * order):
        exact = (1 - (-1) ** (degree + 1)) / (degree + 1)
        got = integrate_1d(lambda t, d=degree: t**d, iv, cfg)
        assert abs(got - exact) <= 1e-13 * (1 + abs(exact))


def test_integrate_1d_polynomial_and_kink():
    assert integrate_1d(lambda t: t * t, Interval1D(0, 1), Q) == pytest.approx(
        1 / 3, abs=1e-14
    )
    got = integrate_1d(lambda t: abs(t - 0.5), Interval1D(0, 1), Q, breakpoints=[0.5])
    assert got == pytest.approx(0.25, abs=1e-14)
    got = integrate_1d(lambda t: math.exp(t), Interval1D(0, 1), Q)
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)


def test_integrate_1d_rejects_nonfinite():
    with pytest.raises(NonFiniteSample):
        integrate_1d(lambda t: float("nan"), Interval1D(0, 1), Q)


def test_integrate_2d_basic():
    r = make_rectangle(0, 1, 0, 1)
    f = BivariateFunction(fn=lambda t, s: t * s, vectorized=True)
    assert integrate_2d(f, r, Q) == pytest.approx(0.25, abs=1e-14)
    r2 = make_rectangle(-1, 2, 0, 3)
    one = BivariateFunction(fn=lambda t, s: 1.0 + 0.0 * t, vectorized=True)
    assert integrate_2d(one, r2, Q) == pytest.approx(r2.area, abs=1e-12)


def test_integrate_2d_exp_series():
    # sum over n >= 1 of 1/(n * n!)
    series = sum(1.0 / (n * math.factorial(n)) for n in range(1, 30))
    f = to_bivariate(parse_expression("exp(t*s)"))
    got = integrate_2d(f, make_rectangle(0, 1, 0, 1), Q)
    assert got == pytest.approx(series, abs=1e-10)


def test_fubini_consistency_on_polynomials():
    rng = XorShift64Star(101)
    for _ in range(10):
        poly = random_polynomial(rng, 6)
        f = to_bivariate(poly)
        a, b = -0.5, 0.75
        c, d = 0.25, 1.0
        r = make_rectangle(a, b, c, d)
        direct = integrate_2d(f, r, Q)
        inner = UnivariateFunction(
            fn=lambda t: integrate_1d(f.fix_t(t), Interval1D(c, d), Q)
        )
        iterated = integrate_1d(inner, Interval1D(a, b), Q)
        assert abs(direct - iterated) <= 1e-12 * (1 + abs(direct))


def test_estimate_bounds_bilinear():
    f = to_bivariate(parse_expression("t*s"))
    db = estimate_bounds(f, make_rectangle(0, 1, 0, 1), grid_n=9, pad_rel=0.0)
    assert db.lower == pytest.approx(1.0, abs=1e-11)
    assert db.upper == pytest.approx(1.0, abs=1e-11)
    assert db.lower <= 1.0 <= db.upper


def test_estimate_bounds_exp():
    f = to_bivariate(parse_expression("exp(t*s)"))
    db = estimate_bounds(f, make_rectangle(0, 1, 0, 1), grid_n=33, pad_rel=0.05)
    assert db.lower <= 1.0 <= db.upper or abs(db.lower - 1.0) < 1e-9
    assert db.upper >= 2 * math.e - 1e-9
    assert db.upper == pytest.approx(2 * math.e, rel=0.05)


def test_estimate_bounds_sine_slab():
    f = to_bivariate(parse_expression("sin(t)*s"))
    db = estimate_bounds(f, make_rectangle(0, math.pi, 0, 1), grid_n=65, pad_rel=0.01)
    assert db.lower <= -1.0 + 1e-3 and db.upper >= 1.0 - 1e-3
    assert db.lower == pytest.approx(-1.0, abs=0.05)
    assert db.upper == pytest.approx(1.0, abs=0.05)


def test_estimate_bounds_brackets_fine_sampling():
    # padded bounds must contain the extrema located by 10x finer sampling
    rng = XorShift64Star(77)
    for _ in range(25):
        poly = random_polynomial(rng, 6)
        f = to_bivariate(poly)
        r = make_rectangle(-0.8, 0.7, -0.2, 0.9)
        db = estimate_bounds(f, r, grid_n=21, pad_rel=0.25)
        ts = np.linspace(r.t_axis.lo, r.t_axis.hi, 210)
        ss = np.linspace(r.s_axis.lo, r.s_axis.hi, 210)
        T, S = np.meshgrid(ts, ss, indexing="ij")
        fine = sample_mixed(f, T, S)
        assert db.lower <= float(np.min(fine)), to_string(poly)
        assert db.upper >= float(np.max(fine)), to_string(poly)


def test_estimate_bounds_padding_floor():
    f = to_bivariate(parse_expression("t*s"))
    db = estimate_bounds(f, make_rectangle(0, 1, 0, 1), grid_n=5, pad_rel=0.0)
    assert db.upper - db.lower >= 2e-12  # absolute floor on each side


def test_gl_rule_arrays_are_immutable():
    rule = gl_rule(8)
    with pytest.raises(ValueError):
        rule.nodes[0] = 5.0
    with pytest.raises(ValueError):
        rule.weights[0] = 5.0
