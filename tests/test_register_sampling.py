"""Line integrals and sampled cell bounds in large blocks.

line_integrals and cell_bounds (on an exact mixed partial) hand a
compiled integrand blocks of up to REGISTER_BLOCK_SAMPLES values, and
each full-grid step of its program writes into a buffer kept per thread.
Every result must equal, bit for bit, the per-line and per-cell reference
samplers in helpers.py, whatever the block boundaries cut, and nothing
returned may be a view of a kept buffer.
"""

import dataclasses
import io
import random
import sys
import threading

import numpy as np
import pytest

from helpers import minor_faults, random_ast, reference_cell_bounds, reference_line_integrals
from ostrocube import QuadConfig, cli, parse_expression, to_bivariate
from ostrocube import expr, quadrature
from ostrocube.expr import XorShift64Star, draw_polynomial_1d, polynomial_1d
from ostrocube.quadrature import cell_bounds, gl_nodes, line_integrals

Q = QuadConfig()


def _functions():
    # (1+t*s)^(t*s/(t*s)*2) raises a full-grid base to a full-grid exponent
    # of exactly 2, which numpy squares only by the evaluator's shortcut
    for text in ("exp(t*s)", "sin(t)*cos(s)", "log(2+t+s)*t", "2.5", "exp(t)^s",
                 "(2+t)^(s-1)", "sqrt(t+s)/(1+t*s)-t*s^2", "(1+t*s)^(t*s/(t*s)*2)"):
        yield text, to_bivariate(parse_expression(text))
    rnd = random.Random(17)
    for k in range(6):
        yield f"ast{k}", to_bivariate(random_ast(rnd, 4))
    for var in ("t", "s"):
        poly = polynomial_1d(draw_polynomial_1d(XorShift64Star(300), 6), var)
        yield f"{var}-poly", to_bivariate(poly)
    # a wrapper hides the compiled run: sampled in blocks of BLOCK_SAMPLES
    f = to_bivariate(parse_expression("exp(t*s)"))
    yield "wrapped", dataclasses.replace(f, fn=lambda t, s: f.fn(t, s),
                                         mixed_fn=lambda t, s: f.mixed_fn(t, s))


FUNCTIONS = dict(_functions())


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _nodes(segments: int, q: QuadConfig = Q):
    edges = np.linspace(0.25, 1.2, segments + 1)
    return gl_nodes(edges[:-1], edges[1:], q)


# 60 lines of 10 segments: blocks of whole lines that end mid-grid; 3 lines
# of 600 segments (76800 values each): row blocks that cut every line
LINES = {
    "many": (np.linspace(0.3, 1.4, 60).tolist(), 10),
    "long": ([0.35, 0.8, 1.3], 600),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("lines", sorted(LINES))
def test_line_integrals_equal_per_line_sampling(name, lines):
    f = FUNCTIONS[name]
    fixed, segments = LINES[lines]
    for q in (Q, Q.refined()):
        nw = _nodes(segments, q)
        for axis in ("t", "s"):
            got = line_integrals(f, axis, fixed, *nw)
            assert _hex(got) == _hex(reference_line_integrals(f, axis, fixed, *nw))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_cell_bounds_equal_per_cell_sampling(name):
    # 15 x 17 cells of 17 x 17 samples: a block boundary falls inside a row
    # of cells
    f = FUNCTIONS[name]
    t_edges, s_edges = np.linspace(0.3, 1.4, 16), np.linspace(0.25, 1.2, 18)
    got = cell_bounds(f, t_edges, s_edges, 17, 0.1)
    assert _hex(got) == _hex(reference_cell_bounds(f, t_edges, s_edges, 17, 0.1))


@pytest.mark.parametrize("name", ["sin(t)*cos(s)", "log(2+t+s)*t"])
def test_cell_bounds_cut_a_row_longer_than_a_register_block(name, monkeypatch):
    # 3 x 300 cells of 17 x 17 samples: a row of cells holds 86700 values,
    # so each row runs in two column chunks, of 226 cells and of 74
    f = FUNCTIONS[name]
    t_edges, s_edges = np.linspace(0.3, 1.4, 4), np.linspace(0.25, 1.2, 301)
    runs = []
    run = expr.run_program

    def counted(program, t, s, registers=None, memo=None):
        if registers is not None:
            runs.append(np.broadcast(t, s).shape)
        return run(program, t, s, registers, memo)

    monkeypatch.setattr(expr, "run_program", counted)
    got = cell_bounds(f, t_edges, s_edges, 17, 0.1)
    assert runs == [(1, 226, 17, 17), (1, 74, 17, 17)] * 3
    assert _hex(got) == _hex(reference_cell_bounds(f, t_edges, s_edges, 17, 0.1))


@pytest.mark.parametrize("cap", [10000, 300])
def test_smaller_register_blocks_keep_every_bit(cap, monkeypatch):
    # 10000 values: 7 lines of 1280 values per block, row blocks of 78 rows
    # for the long lines and 34 cells per block; 300 values: one row of a
    # line per block, and every cell on its own
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", cap)
    for name in ("log(2+t+s)*t", "exp(t)^s", "ast1", "s-poly", "2.5"):
        test_line_integrals_equal_per_line_sampling(name, "many")
        test_cell_bounds_equal_per_cell_sampling(name)
    fixed, _ = LINES["long"]
    f = FUNCTIONS["sin(t)*cos(s)"]
    nw = _nodes(40)
    assert _hex(line_integrals(f, "s", fixed, *nw)) == \
        _hex(reference_line_integrals(f, "s", fixed, *nw))


def _kept_buffers() -> list:
    return list(quadrature._KEPT.flat.values())


def test_results_are_not_registers():
    f, g = FUNCTIONS["exp(t*s)"], FUNCTIONS["log(2+t+s)*t"]
    fixed, segments = LINES["many"]
    nw = _nodes(segments)
    edges = np.linspace(0.3, 1.4, 16), np.linspace(0.25, 1.2, 18)
    lines = line_integrals(f, "t", fixed, *nw)
    bounds = cell_bounds(f, *edges, 17, 0.1)
    kept = [lines.copy(), *(b.copy() for b in bounds)]
    assert _kept_buffers(), "no register run took place"
    for got in (lines, *bounds):
        assert not any(np.shares_memory(got, buf) for buf in _kept_buffers())
    # the next calls write other values into the same registers
    line_integrals(g, "t", fixed, *nw)
    cell_bounds(g, *edges, 17, 0.1)
    for got, copy in zip((lines, *bounds), kept):
        assert got.tobytes() == copy.tobytes()


def test_an_overflow_inside_a_step_is_no_failure_when_every_sample_is_finite():
    # exp(800*t) overflows for t > 0.89, yet exp(-inf) = 0: every sample is
    # finite, so the register run's values stand
    f = to_bivariate(parse_expression("exp(-exp(800*t))*s+t*s"))
    fixed = np.linspace(0.0, 1.0, 40).tolist()
    nw = _nodes(10)
    with np.errstate(all="ignore"):
        assert _hex(line_integrals(f, "t", fixed, *nw)) == \
            _hex(reference_line_integrals(f, "t", fixed, *nw))


_ENCLOSE = {
    "log-auto": ["enclose", "--f", "log(2+t+s)*t", "--rect", "0", "1", "0", "1",
                 "--bounds", "auto", "--subdivide", "48", "48", "--json", "--no-timestamp"],
    "exp-given": ["enclose", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
                  "--bounds", "1", "6", "--subdivide", "48", "48", "--json", "--no-timestamp"],
}


def _enclose(argv) -> str:
    out = io.StringIO()
    assert cli.run(cli.parse_args(argv), out) == 0
    return out.getvalue()


def test_threads_print_what_serial_runs_print():
    # more threads than cores, switching often: each keeps its own
    # registers, so no enclosure sees another's values
    serial = {key: _enclose(argv) for key, argv in _ENCLOSE.items()}
    keys = sorted(_ENCLOSE) * 2
    start = threading.Barrier(len(keys))
    printed: list = [[] for _ in keys]

    def work(n):
        start.wait()
        for _ in range(3):
            printed[n].append(_enclose(_ENCLOSE[keys[n]]))

    threads = [threading.Thread(target=work, args=(n,)) for n in range(len(keys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for key, docs in zip(keys, printed):
        assert docs == [serial[key]] * 3, key


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_an_enclosure_reuses_the_memory_of_the_one_before(tmp_path):
    # the full-grid steps of the large blocks go into kept registers and the
    # cell edges' nodes into kept buffers, so once one enclosure has run,
    # the next faults in no new memory, whether the package is compiled
    # from source or read from bytecode; the same blocks without registers
    # fault in thousands of pages each time
    argv = ["enclose", "--f", "log(2+t+s)*t", "--rect", "0", "1", "0", "1",
            "--bounds", "auto", "--subdivide", "48", "48", "--json"]
    for bytecode in (False, True):
        faults = minor_faults(argv, bytecode, tmp_path / str(bytecode))
        assert faults < 20, (bytecode, faults)


@pytest.mark.parametrize("text", ["exp(900*s)*t", "t*exp(900*s)+log(t+1)"])
def test_with_numpy_errors_ignored_a_non_finite_sample_is_counted_in_small_blocks(text):
    # nothing raises in the register run, and its infinities must still send
    # the block to the failure rule, which counts the first failing line or
    # cell whole: lines of 12800 values are one register block but two
    # small ones (the name is older than the rule)
    f = to_bivariate(parse_expression(text))
    fixed = np.linspace(0.3, 1.4, 10).tolist()
    nw = _nodes(100)
    edges = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 17)
    with np.errstate(all="ignore"):
        for sampler, args in ((line_integrals, (f, "t", fixed, *nw)),
                              (cell_bounds, (f, *edges, 17, 0.1))):
            reference = {line_integrals: reference_line_integrals,
                         cell_bounds: reference_cell_bounds}[sampler]
            with pytest.raises(quadrature.NonFiniteSample) as expected:
                reference(*args)
            with pytest.raises(quadrature.NonFiniteSample) as got:
                sampler(*args)
            assert str(got.value) == str(expected.value)
