"""Outer-product sampling: the grid samplers hand f per-axis coordinates
that broadcast against each other, so a subtree of one variable is
evaluated along its own axis only. Every sampler must equal, bit for bit,
its meshgrid or per-line predecessor in helpers.py, and keep that one's
error text.
"""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import (
    random_ast,
    reference_cell_bounds,
    reference_grid_values,
    reference_integrate_2d,
    reference_line_integrals,
)
from ostrocube import expr
from ostrocube import QuadConfig, make_point, make_rectangle, parse_expression, to_bivariate
from ostrocube.core import BivariateFunction
from ostrocube.expr import XorShift64Star, draw_polynomial_1d, eval_expr, polynomial_1d
from ostrocube.quadrature import (
    BLOCK_SAMPLES,
    NonFiniteSample,
    cell_bounds,
    gl_nodes,
    grid_values,
    integrate_2d,
    line_integrals,
)

Q = QuadConfig()
# random_ast trees are smooth on [0.2, 1.5]^2
RECT = make_rectangle(0.3, 1.4, 0.25, 1.2)
T_EDGES = np.linspace(0.3, 1.4, 4)
S_EDGES = np.linspace(0.25, 1.2, 3)


def _functions():
    rnd = random.Random(8)
    for k in range(25):
        yield f"ast{k}", to_bivariate(random_ast(rnd, 4))
    yield "const", to_bivariate(parse_expression("2.5"))
    for var in ("t", "s"):
        for k in range(3):
            poly = polynomial_1d(draw_polynomial_1d(XorShift64Star(100 + k), 6), var)
            yield f"{var}-poly{k}", to_bivariate(poly)
    yield "plain", BivariateFunction(
        fn=lambda t, s: math.exp(0.5 * t) * math.cos(t * s),
        mixed_fn=lambda t, s: -math.exp(0.5 * t) * ((0.5 * t + 1.0) * math.sin(t * s)
                                                    + t * s * math.cos(t * s)))
    yield "plain-s", BivariateFunction(fn=lambda t, s: s ** 3 - s, mixed_fn=lambda t, s: 0.0)


FUNCTIONS = dict(_functions())


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_samplers_match_meshgrid_and_per_line_samplers(name):
    f = FUNCTIONS[name]
    pt = make_point(RECT, 0.61, 0.97)
    for split in (None, pt):
        assert integrate_2d(f, RECT, Q, split).hex() == \
            reference_integrate_2d(f, RECT, Q, split).hex()

    ts, ss = np.linspace(0.3, 1.4, 7), np.linspace(0.25, 1.2, 5)
    assert _hex(grid_values(f, ts, ss)) == _hex(reference_grid_values(f, ts, ss))

    for axis, fixed, edges in (("t", ts, S_EDGES), ("s", ss, T_EDGES)):
        nw = gl_nodes(edges[:-1], edges[1:], Q)
        got = line_integrals(f, axis, fixed.tolist(), *nw)
        assert _hex(got) == _hex(reference_line_integrals(f, axis, fixed.tolist(), *nw))

    got = cell_bounds(f, T_EDGES, S_EDGES, 17, 0.1)
    expected = reference_cell_bounds(f, T_EDGES, S_EDGES, 17, 0.1)
    assert _hex(got) == _hex(expected)


@pytest.mark.parametrize("name", ["ast0", "const", "t-poly1", "s-poly1", "plain"])
@pytest.mark.parametrize("segments", [10, 100], ids=["lines-per-block", "rows-per-block"])
def test_line_blocks_across_block_samples(name, segments):
    # 10 segments of 128 nodes: six lines per call of f, 20 lines in four
    # calls; 100 segments: 12800 values per line, split into row blocks
    f = FUNCTIONS[name]
    width = Q.panels * Q.gl_order
    assert segments * width * 2 < BLOCK_SAMPLES or segments * width > BLOCK_SAMPLES
    edges = np.linspace(0.25, 1.2, segments + 1)
    nw = gl_nodes(edges[:-1], edges[1:], Q)
    fixed = np.linspace(0.3, 1.4, 20).tolist()
    for axis in ("t", "s"):
        got = line_integrals(f, axis, fixed, *nw)
        assert _hex(got) == _hex(reference_line_integrals(f, axis, fixed, *nw))


def test_grid_values_across_block_samples():
    f = FUNCTIONS["ast3"]
    ts, ss = np.linspace(0.3, 1.4, 200), np.linspace(0.25, 1.2, 100)
    assert _hex(grid_values(f, ts, ss)) == _hex(reference_grid_values(f, ts, ss))


@pytest.mark.parametrize("text", ["exp(t)^s", "exp(s)^t", "(2+t)^(s-1)", "2^(t*s)"])
def test_power_samples_equal_scalar_evaluation(text):
    # numpy computes the exponents 0.5, 2 and -1 by shortcuts only when the
    # exponent reaches its loop with stride 0; a sample must not depend on
    # the layout of the coordinates, so it equals the scalar evaluation
    e = parse_expression(text)
    f = to_bivariate(e)
    at = np.array([0.0, 0.5, 1.0, 2.0, -1.0, 0.25, 3.0])
    expected = [[eval_expr(e, t, s) for s in at] for t in at]
    assert _hex(grid_values(f, at, at)) == _hex(expected)
    edges = np.array([0.25, 0.75, 1.5])
    nw = gl_nodes(edges[:-1], edges[1:], Q)
    for axis in ("t", "s"):
        got = line_integrals(f, axis, at.tolist(), *nw)
        assert _hex(got) == _hex(reference_line_integrals(f, axis, at.tolist(), *nw))


def _failing_lines(t, s):
    """inf on the line t = 0.5; the line t = 0.75 cannot be evaluated."""
    if np.any(t == 0.75):
        raise ValueError("no value at t = 0.75")
    return np.where(t == 0.5, np.inf, t * s)


@pytest.mark.parametrize("fixed", [[0.25, 0.5, 0.75], [0.25, 0.75, 0.5]])
def test_first_failing_line_decides_the_error(fixed):
    f = BivariateFunction(fn=_failing_lines, vectorized=True, label="g")
    edges = np.array([0.0, 1.0])
    nw = gl_nodes(edges[:-1], edges[1:], Q)
    with pytest.raises(Exception) as expected:
        reference_line_integrals(f, "t", fixed, *nw)
    with pytest.raises(type(expected.value)) as got:
        line_integrals(f, "t", fixed, *nw)
    assert str(got.value) == str(expected.value)
    if fixed[1] == 0.5:
        assert isinstance(got.value, NonFiniteSample)
        assert str(got.value) == "128 non-finite sample(s) while evaluating g(0.5, .)"


# ---------------------------------------------------------------------------
# steps of one variable kept across register blocks
# ---------------------------------------------------------------------------
#
# A register run of a compiled expression keeps the values of its steps of
# one variable that a full-grid step reads for the rest of the sampler
# call, keyed by the coordinate array they were computed from:
# line_integrals evaluates those of the node variable once per row block
# of nodes, and cell_bounds, whose blocks are whole rows of cells against
# one shared array of s samples, those of s once per column chunk and
# those of t once per block of cell rows. A compiled f runs blocks of
# REGISTER_BLOCK_SAMPLES values, so 40 lines of 10 segments, 40 lines of
# 100 segments and 7 x 8 cells each take one register block. Their blocks
# of BLOCK_SAMPLES values (6 lines, split rows, 28 cells per call of f)
# run when a register run fails, as in the error tests below, and
# evaluate f as it is; test_register_sampling.py cuts register blocks.

MANY = np.linspace(0.3, 1.4, 40).tolist()
TEN = gl_nodes(np.linspace(0.25, 1.2, 11)[:-1], np.linspace(0.25, 1.2, 11)[1:], Q)
HUNDRED = gl_nodes(np.linspace(0.25, 1.2, 101)[:-1], np.linspace(0.25, 1.2, 101)[1:], Q)


@pytest.mark.parametrize("name", sorted(name for name in FUNCTIONS if "plain" not in name))
def test_hoisted_samplers_match_per_line_and_per_cell_samplers(name):
    f = FUNCTIONS[name]
    for axis in ("t", "s"):
        for nw in (TEN, HUNDRED):
            got = line_integrals(f, axis, MANY, *nw)
            assert _hex(got) == _hex(reference_line_integrals(f, axis, MANY, *nw))
    t_edges, s_edges = np.linspace(0.3, 1.4, 8), np.linspace(0.25, 1.2, 9)
    got = cell_bounds(f, t_edges, s_edges, 17, 0.1)
    assert _hex(got) == _hex(reference_cell_bounds(f, t_edges, s_edges, 17, 0.1))


def _counting_cos(monkeypatch) -> list:
    """Patch the evaluator's cos to record how many values it computes."""
    sizes: list = []
    monkeypatch.setitem(expr._UNARY, "cos", lambda v: sizes.append(np.size(v)) or np.cos(v))
    return sizes


def test_subtrees_of_the_node_variable_are_evaluated_once_per_row_block(monkeypatch):
    # a compiled f runs blocks of REGISTER_BLOCK_SAMPLES values: 100
    # segments of 128 nodes take one row block, and 600 segments (76800
    # values a line) the rows 0-511 and 512-599
    f = to_bivariate(parse_expression("sin(t)*cos(s)"))
    nodes, weights = HUNDRED
    sizes = _counting_cos(monkeypatch)
    line_integrals(f, "t", MANY, nodes, weights)
    assert sizes == [100 * 128]
    sizes.clear()
    edges = np.linspace(0.25, 1.2, 601)
    line_integrals(f, "t", MANY[:3], *gl_nodes(edges[:-1], edges[1:], Q))
    assert sizes == [512 * 128, 88 * 128]
    sizes.clear()
    # a wrapper hides the capability: every block evaluates cos again
    wrapped = dataclasses.replace(f, fn=lambda t, s: f.fn(t, s))
    line_integrals(wrapped, "t", MANY, nodes, weights)
    assert sum(sizes) == len(MANY) * nodes.size
    sizes.clear()
    # one block: nothing to share, nothing kept
    line_integrals(f, "t", MANY[:1], *gl_nodes(np.array([0.0]), np.array([1.0]), Q))
    assert sizes == [Q.panels * Q.gl_order]


def test_subtrees_of_each_variable_are_evaluated_once_per_cell_bounds_call(monkeypatch):
    # the mixed partial of sin(t)*cos(s) is -(cos(t)*sin(s)): cos(t) over
    # the sample rows of each block of cell rows, once; 15 x 17 cells take
    # two register blocks, of 13 rows of cells and of 2
    f = to_bivariate(parse_expression("sin(t)*cos(s)"))
    sizes = _counting_cos(monkeypatch)
    cell_bounds(f, np.linspace(0.3, 1.4, 16), np.linspace(0.25, 1.2, 18), 17, 0.1)
    assert sum(sizes) == 15 * 17
    assert sizes == [13 * 17, 2 * 17]
    sizes.clear()
    # 7 x 8 cells fit one register block: cos(t) over the 7 rows of cells
    cell_bounds(f, np.linspace(0.3, 1.4, 8), np.linspace(0.25, 1.2, 9), 17, 0.1)
    assert sizes == [7 * 17]


def _outcome(sampler, *args):
    try:
        return _hex(sampler(*args))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    "log(t-0.6)*sqrt(s-0.3)", "sqrt(s-0.3)*log(t-0.6)", "t/(s-s)", "exp(900*s)*t",
    "t*exp(900*s)+log(t+1)", "(s-0.3)^0.5*exp(t)", "log(t-0.6)*exp(900*s)",
])
@pytest.mark.parametrize("fixed", [MANY, MANY[::-1]], ids=["up", "down"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hoisted_line_errors_match_per_line_sampler(text, fixed):
    # a failing step of the node variable fails the first register block,
    # and the small blocks sample again: the error, its count and the
    # first bad line are what the plain loop reports
    f = to_bivariate(parse_expression(text))
    failures = 0
    for axis in ("t", "s"):
        for nw in (TEN, HUNDRED):
            expected = _outcome(reference_line_integrals, f, axis, fixed, *nw)
            assert _outcome(line_integrals, f, axis, fixed, *nw) == expected
            failures += isinstance(expected, tuple)
    assert failures


@pytest.mark.parametrize("text", ["sqrt(s-0.5)*log(t-0.5)", "log(t-0.5)*sqrt(s-0.5)",
                                  "exp(900*s)*t", "t*exp(900*s)+log(t+1)"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hoisted_cell_bounds_errors_match_per_cell_sampler(text):
    f = to_bivariate(parse_expression(text))
    edges = np.linspace(0.0, 1.0, 9)
    with pytest.raises(Exception) as expected:
        reference_cell_bounds(f, edges, edges, 17, 0.1)
    with pytest.raises(type(expected.value)) as got:
        cell_bounds(f, edges, edges, 17, 0.1)
    assert str(got.value) == str(expected.value)


def test_hoisted_line_memory_stays_within_the_node_array():
    # 4096 segments, the most an enclose axis takes: cos(s) is kept once
    # for every row block of the nodes (4 MiB in all), everything else is
    # a block at a time
    f = to_bivariate(parse_expression("sin(t)*cos(s)"))
    edges = np.linspace(0.0, 1.0, 4097)
    nodes, weights = gl_nodes(edges[:-1], edges[1:], Q)
    tracemalloc.start()
    try:
        line_integrals(f, "t", [0.25, 0.5, 0.75], nodes, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nodes.nbytes + 2**20


@pytest.mark.parametrize("text", ["(1+s*(2+s*(3+s*4)))*t", "exp(2*s+1)*sin(3*s)*t"])
def test_kept_steps_of_the_node_variable_stay_within_the_node_array(text):
    # a register run keeps only the steps of s that a full-grid step reads
    # (here the whole factor of s, 4 MiB over 4096 segments), not the six
    # steps of s inside it, which would hold 24 MiB; the steps of one
    # block (512 KiB each) come and go
    f = to_bivariate(parse_expression(text))
    edges = np.linspace(0.0, 1.0, 4097)
    nodes, weights = gl_nodes(edges[:-1], edges[1:], Q)
    tracemalloc.start()
    try:
        got = line_integrals(f, "t", [0.25, 0.5, 0.75], nodes, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * nodes.nbytes
    assert _hex(got) == _hex(reference_line_integrals(f, "t", [0.25, 0.5, 0.75], nodes, weights))
