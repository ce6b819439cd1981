"""identity's and compare's anchor grids, each reduced from one register run.

f's split grid (integrate_2d, identity._quadrant_samples) and the kernel-
weighted mixed partial of the four quadrant oracles
(identity._quadrant_oracles) of a compiled integrand are sampled in one
run into registers when the grid holds more than BLOCK_SAMPLES and at most
REGISTER_BLOCK_SAMPLES values: the 256 x 256 grid of an interior anchor,
128 x 256 with the anchor on an edge. Every value must equal, bit for bit,
the whole-grid reference samplers in helpers.py, and every error, warning
and non-finite count must be the one the blocks of BLOCK_SAMPLES values
report.
"""

import io
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from helpers import minor_faults, reference_integrate_2d, reference_quadrant_samples
from ostrocube import QuadConfig, cli, make_point, make_rectangle, parse_expression, to_bivariate
from ostrocube import quadrature
from ostrocube.core import BivariateFunction
from ostrocube.identity import (
    Quadrant,
    _quadrant_oracles,
    _quadrant_rect,
    _quadrant_samples,
    identity_report,
    quadrant_oracle,
)
from ostrocube.quadrature import BLOCK_SAMPLES, NonFiniteSample, integrate_2d

Q = QuadConfig()
UNIT = make_rectangle(0.0, 1.0, 0.0, 1.0)
STRADDLING = make_rectangle(-0.25, 0.8, -0.27, 0.83)
POLY = "-0.7688*t*s^3 + 0.5569*t^2*s - 0.373*t^2*s^2 + 0.8616*t*s + 0.6301*t^3"
# f and its mixed partial over the whole grid, along t or s only, or
# constant: exp(t)*s has the mixed partial exp(t), t*exp(s) exp(s), t*s 1,
# and sin(t), exp(s) and 2.5 the constant 0
TEXTS = ("exp(t*s)", "sin(t)*cos(s)", "log(2+t+s)*t", POLY, "exp(t)*s", "t*exp(s)", "t*s",
         "sin(t)", "exp(s)", "2.5")
# inside, on an edge of each axis, on corners, as fractions of each side
ANCHORS = ((0.3, 0.6), (0.0, 0.6), (0.3, 1.0), (1.0, 0.0), (0.0, 0.0))


def _f(text: str) -> BivariateFunction:
    return to_bivariate(parse_expression(text))


def _point(r, u: float, v: float):
    def at(iv, w):  # the edges exactly
        return (iv.lo, iv.hi)[int(w)] if w in (0.0, 1.0) else iv.lo + w * iv.length

    return make_point(r, at(r.t_axis, u), at(r.s_axis, v))


def _hex(value) -> object:
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return float(value).hex()


def _samples_hex(samples: tuple) -> list:
    terms, along_t, along_s, double = samples
    return _hex([terms.values, terms.along_t, terms.along_s, terms.double, along_t, along_s,
                 [double[quad] for quad in Quadrant]])


def _oracles(f, r, pt) -> dict:
    return {quad: quadrant_oracle(f, r, pt, quad, Q) for quad in Quadrant}


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("u, v", ANCHORS)
# at the default register cap, and at BLOCK_SAMPLES, where no grid fits a
# register run and every one is sampled and reduced in blocks
@pytest.mark.parametrize("rect, cap", [
    (UNIT, quadrature.REGISTER_BLOCK_SAMPLES), (STRADDLING, quadrature.REGISTER_BLOCK_SAMPLES),
    (UNIT, BLOCK_SAMPLES), (STRADDLING, BLOCK_SAMPLES),
], ids=["unit", "straddling", "unit-blocks", "straddling-blocks"])
def test_anchor_grids_equal_the_reference(text, u, v, rect, cap, monkeypatch):
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", cap)
    f, pt = _f(text), _point(rect, u, v)
    assert integrate_2d(f, rect, Q, split=pt).hex() == \
        reference_integrate_2d(f, rect, Q, split=pt).hex()
    assert _samples_hex(_quadrant_samples(f, rect, pt, Q)) == \
        _samples_hex(reference_quadrant_samples(f, rect, pt, Q))
    assert _hex(_quadrant_oracles(f, rect, pt, Q)) == \
        _hex(_oracles(f, rect, pt))


@pytest.mark.parametrize("text", TEXTS)
def test_the_quadrants_and_the_unsplit_grid_equal_the_reference(text):
    # 128 x 128 quadrants and the unsplit grid: above BLOCK_SAMPLES too
    f, pt = _f(text), _point(STRADDLING, 0.3, 0.6)
    assert integrate_2d(f, STRADDLING, Q).hex() == reference_integrate_2d(f, STRADDLING, Q).hex()
    for quad in Quadrant:
        sub = _quadrant_rect(STRADDLING, pt, quad)
        assert integrate_2d(f, sub, Q).hex() == reference_integrate_2d(f, sub, Q).hex()


@pytest.mark.parametrize("text", ["exp(t*s)", "log(2+t+s)*t", "exp(t)*s", "t*exp(s)", "2.5"])
def test_the_grids_of_a_compiled_integrand_run_in_registers(text, monkeypatch):
    runs = []
    grid_sums = quadrature._grid_sums

    def spy(*args):
        sums = grid_sums(*args)
        runs.append(sums is not None)
        return sums

    monkeypatch.setattr(quadrature, "_grid_sums", spy)
    f = _f(text)
    identity_report(f, UNIT, make_point(UNIT, 0.3, 0.6), Q)
    identity_report(f, UNIT, make_point(UNIT, 0.0, 0.6), Q)
    assert runs == [True] * 4


def test_a_plain_callable_keeps_its_blocks():
    sizes = []

    def fn(t, s):
        sizes.append(np.broadcast(t, s).size)
        return np.exp(t * s) + t * t * s

    def mixed_fn(t, s):
        sizes.append(np.broadcast(t, s).size)
        return (1.0 + t * s) * np.exp(t * s) + 2.0 * t

    f = BivariateFunction(fn=fn, mixed_fn=mixed_fn, vectorized=True)
    for u, v in ANCHORS:
        pt = _point(UNIT, u, v)
        got = (integrate_2d(f, UNIT, Q, split=pt).hex(),
               _samples_hex(_quadrant_samples(f, UNIT, pt, Q)),
               _hex(_quadrant_oracles(f, UNIT, pt, Q)))
        assert max(sizes) <= BLOCK_SAMPLES
        assert got == (reference_integrate_2d(f, UNIT, Q, split=pt).hex(),
                       _samples_hex(reference_quadrant_samples(f, UNIT, pt, Q)),
                       _hex(_oracles(f, UNIT, pt)))
        sizes.clear()


def _run(argv: list) -> tuple:
    """Exit code, stdout, stderr and the warnings of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stderr, sys.stderr = sys.stderr, err
        try:
            code = cli.run(cli.parse_args(argv), out)
        finally:
            sys.stderr = stderr
    return code, out.getvalue(), err.getvalue(), [(w.category, str(w.message)) for w in caught]


# (argv, the error line printed at the parent commit, where every grid was
# sampled in blocks)
_FAILURES = {
    "overflow": (["identity", "--f", "exp(800*t)*(s+1)", "--rect", "0", "1", "0", "1",
                  "--point", "0.3", "0.6", "--json"],
                 "numerical failure: 2816 non-finite sample(s) while evaluating "
                 "exp(800 * t) * (s + 1)\n"),
    "domain": (["identity", "--f", "log(t-0.3)*s", "--rect", "0", "1", "0", "1",
                "--point", "0.5", "0.6", "--json"],
               "numerical failure: log of a non-positive value\n"),
    # the anchor's lines and the edges stay clear of the guard's disc, so
    # the split grid is the first sample that fails
    "compare-domain": (["compare", "--f", "log((t-0.15)^2+(s-0.3)^2-0.001)*s", "--rect", "0",
                        "1", "0", "1", "--point", "0.6", "0.7", "--bounds", "-9", "9", "--json"],
                       "numerical failure: log of a non-positive value\n"),
}


@pytest.mark.parametrize("name", sorted(_FAILURES))
def test_a_failing_grid_reports_what_the_blocks_report(name, monkeypatch):
    argv, line = _FAILURES[name]
    got = _run(argv)
    assert got[0] == 1 and got[2].endswith(line)
    # no grid fits a register run: every one is sampled in blocks
    monkeypatch.setattr(quadrature, "REGISTER_BLOCK_SAMPLES", BLOCK_SAMPLES)
    assert _run(argv) == got


@pytest.mark.parametrize("text", ["exp(900*s)*t", "exp(900*(s-0.1))*t+log(t+1)"])
def test_with_numpy_errors_ignored_a_non_finite_grid_is_counted_in_blocks(text):
    # nothing raises in the register runs, and the infinities of f (its
    # split grid) and of its mixed partial (the oracle) must still send them
    # to the blocks, whose counts the errors report
    f, pt = _f(text), make_point(UNIT, 0.3, 0.6)

    def raised(call) -> tuple:
        with pytest.raises(NonFiniteSample) as info:
            call()
        return str(info.value)

    with np.errstate(all="ignore"):
        assert raised(lambda: integrate_2d(f, UNIT, Q, split=pt)) == \
            raised(lambda: reference_integrate_2d(f, UNIT, Q, split=pt))
        assert raised(lambda: _quadrant_samples(f, UNIT, pt, Q)) == \
            raised(lambda: [reference_integrate_2d(f, _quadrant_rect(UNIT, pt, quad), Q)
                            for quad in Quadrant])
        assert raised(lambda: _quadrant_oracles(f, UNIT, pt, Q)) == \
            raised(lambda: _oracles(f, UNIT, pt))


_ANCHOR_OPS = {
    "identity": ["identity", "--f", "log(2+t+s)*t", "--rect", "0", "1", "0", "1",
                 "--point", "0.3", "0.6", "--json"],
    "compare": ["compare", "--f", "exp(t*s)", "--rect", "0", "1", "0", "1",
                "--point", "0.3", "0.6", "--bounds", "1", "5.5", "--json"],
    "identity-edge": ["identity", "--f", POLY, "--rect", "-0.25", "0.8", "-0.27", "0.83",
                      "--point", "-0.25", "0.5", "--json"],
}


def _document(argv: list) -> dict:
    out = io.StringIO()
    assert cli.run(cli.parse_args(argv), out) == 0
    doc = json.loads(out.getvalue())
    del doc["runtime_ms"]
    return doc


def test_threads_print_what_serial_runs_print():
    # more threads than cores, switching often: each keeps its own registers,
    # which also take the oracle's kernel-weighted grid
    serial = {key: _document(argv) for key, argv in _ANCHOR_OPS.items()}
    keys = sorted(_ANCHOR_OPS) * 2
    start = threading.Barrier(len(keys))
    printed: list = [[] for _ in keys]

    def work(n):
        start.wait()
        for _ in range(4):
            printed[n].append(_document(_ANCHOR_OPS[keys[n]]))

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
        assert docs == [serial[key]] * 4, key


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
@pytest.mark.parametrize("kind", ["identity", "compare"])
def test_an_anchor_audit_reuses_the_memory_of_the_one_before(kind, tmp_path):
    # both grids run into kept registers, the oracle's product with the
    # kernels too, and no grid is built outside them
    argv = [kind, "--f", "log(2+t+s)*t", "--rect", "0", "1", "0", "1", "--point", "0.3", "0.6",
            *(["--bounds", "-1", "2"] if kind == "compare" else []), "--json"]
    for bytecode in (False, True):
        faults = minor_faults(argv, bytecode, tmp_path / str(bytecode))
        assert faults < 20, (bytecode, faults)
