"""The stacked audit of `verify` against the per-trial loop.

`verify` draws a chunk of trials, then samples all of them at once from
stacked coefficient arrays; `helpers.reference_run_verify` runs each trial
on its own through the public functions, as `verify` did before. The two
must print the same document byte for byte, for every degree, lambda and
rule subset, and for crafted trials that stacking must hand to the
per-trial path.
"""

import io
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from helpers import reference_run_verify
from ostrocube import cli, stacked

_SUBSETS = ("t1,t2", "t3,corrected", "t4", "t5", "t1", "t2,t4", "t3,t4,t5")


def _run(monkeypatch, argv, crafted=None, reference=False):
    """Exit code and stdout of `verify argv`; with reference=True through
    the per-trial loop. crafted maps trial indices to trials that replace
    the drawn ones."""
    crafted = crafted or {}
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(cli, "_run_verify",
                          lambda opts: reference_run_verify(opts, crafted))
        else:
            draw = cli._draw_trial
            patch.setattr(cli, "_draw_trial",
                          lambda seed, k, degree, lam: crafted.get(k) or draw(seed, k, degree, lam))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run_main(["verify", *argv, "--json", "--no-timestamp"])
    return code, buf.getvalue()


def _assert_same(monkeypatch, argv, crafted=None):
    got = _run(monkeypatch, argv, crafted)
    assert got == _run(monkeypatch, argv, crafted, reference=True)
    return got


@pytest.mark.parametrize("lam", ["0", "0.3", "1"])
@pytest.mark.parametrize("degree", range(7))
def test_stacked_audit_matches_per_trial_loop(monkeypatch, degree, lam):
    code, _ = _assert_same(monkeypatch, ["--trials", "100", "--seed", str(300 + degree),
                                         "--degree", str(degree), "--lambda", lam])
    assert code == 0


@pytest.mark.parametrize("rules", _SUBSETS)
@pytest.mark.parametrize("degree", range(7))
def test_stacked_audit_matches_per_trial_loop_per_rule_subset(monkeypatch, degree, rules):
    lam = ("0", "0.3", "1")[degree % 3]
    _assert_same(monkeypatch, ["--trials", "100", "--seed", str(400 + degree), "--degree",
                               str(degree), "--lambda", lam, "--rules", rules])


def _crafted(seed, degree, lam):
    """Trials 3, 5, 8, 9, 12 and 14 of the corpus, each changed so that
    stacking cannot keep its bits: a coefficient of f or g set to 0.0 or
    1.0, or an anchor moved onto an edge of the rectangle."""
    draw = {k: cli._draw_trial(seed, k, degree, lam) for k in (3, 5, 8, 9, 12, 14)}

    def with_f(trial, value):
        rows = [list(row) for row in trial.f]
        rows[-1][0] = value
        return trial._replace(f=rows)

    def with_g(trial, value):
        return trial._replace(g=trial.g[:-1] + [value])

    a, b, c, d = draw[9].rect
    _, _, _, d14 = draw[14].rect
    return {
        3: with_f(draw[3], 0.0),
        5: with_f(draw[5], 1.0),
        8: with_g(draw[8], 0.0),
        9: draw[9]._replace(p=(a, draw[9].p[1])),
        12: with_g(draw[12], 1.0),
        14: draw[14]._replace(q=(draw[14].q[0], d14)),
    }


def test_crafted_trials_take_the_per_trial_path(monkeypatch):
    crafted = _crafted(21, 4, 0.0)
    per_trial = []
    for name in ("_trial_terms_1d", "_trial_terms_2d"):
        original = getattr(cli, name)

        def counted(trial, *args, _name=name, _original=original):
            per_trial.append((_name[-2:], trial.index))
            return _original(trial, *args)

        monkeypatch.setattr(cli, name, counted)
    code, _ = _assert_same(monkeypatch, ["--trials", "20", "--seed", "21", "--degree", "4"],
                           crafted)
    assert code == 0
    # g's coefficients send a trial's 1D part, f's and the anchors its 2D part
    assert sorted(per_trial) == [("1d", 8), ("1d", 12), ("2d", 3), ("2d", 5), ("2d", 9),
                                 ("2d", 14)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("poly", ["f", "g"])
def test_non_finite_samples_fail_as_the_per_trial_loop_does(monkeypatch, capsys, poly):
    trial = cli._draw_trial(5, 2, 6, 0.0)
    huge = {"f": {"f": [[1e308] * 7] * 7}, "g": {"g": [1e308] * 7}}[poly]
    crafted = {2: trial._replace(**huge)}
    argv = ["--trials", "6", "--seed", "5"]
    code, out = _run(monkeypatch, argv, crafted)
    err = capsys.readouterr().err
    assert (code, out, err) == (*_run(monkeypatch, argv, crafted, reference=True),
                                capsys.readouterr().err)
    assert code == 1 and out == ""
    assert err.startswith("numerical failure: ")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
@pytest.mark.parametrize("field, degree", [("interval", 6), ("rect", 0)])
def test_degenerate_domains_fail_as_the_per_trial_loop_does(monkeypatch, capsys, field, degree):
    # a constant f has finite samples on an infinite rectangle; t3 and t4
    # are left out, as their re-checks would fail on it too
    trial = cli._draw_trial(5, 3, degree, 0.0)
    a, _, c, d = trial.rect
    bad = {"interval": (trial.x, trial.x), "rect": (a, math.inf, c, d)}[field]
    crafted = {3: trial._replace(**{field: bad})}
    argv = ["--trials", "6", "--seed", "5", "--degree", str(degree), "--rules", "t2,t5"]
    code, out = _run(monkeypatch, argv, crafted)
    err = capsys.readouterr().err
    assert (code, out, err) == (*_run(monkeypatch, argv, crafted, reference=True),
                                capsys.readouterr().err)
    assert code == 1 and err.startswith("error: ")


def test_one_chunk_runs_five_stacked_programs(monkeypatch):
    # one run each per chunk, whatever its size: g at its point, ends and
    # nodes; g'; f at its points and lines; f on both split double-integral
    # grids; the mixed partial
    runs = []
    run_program = stacked.run_program
    monkeypatch.setattr(stacked, "run_program",
                        lambda *args: runs.append(args) or run_program(*args))
    code, _ = _run(monkeypatch, ["--trials", "1", "--seed", "1"])
    assert code == 0
    assert len(runs) == 5


def test_stacked_audit_memory_stays_small():
    # each intermediate of the stacked templates is dropped after its last
    # use: 4.1 MiB traced at the peak, 13 MiB when every one is kept
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.run_main(["verify", "--trials", "200", "--degree", "6", "--json",
                                 "--no-timestamp"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("degree", range(7))
def test_stacked_terms_equal_per_trial_terms(degree, lam):
    # every trial's samples, not only the ones a document shows: the rows
    # the stack gives equal the rows that each trial's own terms fill in
    trials = [cli._draw_trial(500 + degree, k, degree, lam) for k in range(64)]
    anchors = ("p", "q")
    one, ok_1d = stacked.sample_1d(trials, degree)
    two, ok_2d = stacked.sample_2d(trials, degree, anchors)
    assert ok_1d.all() and ok_2d.all()
    own_1d = type(one)(*(field.copy() for field in one))
    own_2d = type(two)(*(field.copy() for field in two))
    for j, trial in enumerate(trials):
        terms, d_lo, d_hi = cli._trial_terms_1d(trial, True)
        assert own_1d.interval[j].tolist() == [terms.iv.lo, terms.iv.hi]
        assert own_1d.x[j] == terms.x
        own_1d.put(j, terms, d_lo, d_hi, max(abs(d_lo), abs(d_hi)))
        terms, db = cli._trial_terms_2d(trial, anchors)
        assert own_2d.rect[j].tolist() == list(trial.rect)
        assert own_2d.xy[j].tolist() == [[pt.point.x, pt.point.y] for pt in terms]
        own_2d.put(j, terms, db)
    for got, own in zip((*one, *two), (*own_1d, *own_2d)):
        assert np.array_equal(got, own)
