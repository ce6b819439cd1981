"""Command-line front end.

Four subcommands over the same JSON schema (schema_version 1):

    enclose   certified enclosure of the double integral of --f over --rect
    verify    seeded audit of the rule catalogue (t1..t5 plus 'corrected')
    identity  oracle / stated / derived comparison at one anchor
    compare   certified error radii of the two-variable rules at one anchor

Output is human-readable text by default, one JSON document with --json;
--out PATH writes the JSON document to a file in either mode. Exit codes:
0 success, 1 numerical failure, 2 usage error, 3 when verify finds
violations in rules listed under --expect-hold. Every number shown in text
mode is the full-precision repr that also appears in the JSON document,
and a fixed --seed makes verify output byte-identical across runs (pass
--no-timestamp to zero the runtime field).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    BivariateFunction,
    DerivativeBound1D,
    DerivativeBounds,
    EngineError,
    EvalPoint,
    Interval1D,
    QuadConfig,
    Rectangle,
    UnivariateFunction,
    make_point,
    make_rectangle,
)
from .enclosure import (
    _MAX_AXIS_CELLS,
    _MAX_CELLS,
    _bounds_hold_at,
    compare_bounds,
    composite_enclosure,
    single_cell_enclosure,
)
from .expr import (
    DomainError,
    Program,
    XorShift64Star,
    derive_seed,
    differentiate,
    draw_polynomial,
    draw_polynomial_1d,
    parse_expression,
    polynomial,
    polynomial_1d,
    run_program,
    stacked_program,
    to_bivariate,
    to_string,
    to_univariate,
)
from .identity import corrected_from_terms, identity_report
from .quadrature import NonFiniteSample, estimate_bounds, gl_nodes, sample_univariate
from .rules import (
    AnchorTerms,
    IntervalTerms,
    Lambda,
    PointOutsideLambdaBox,
    RuleOutcome,
    anchor_terms,
    cheng_1d,
    cheng_from_terms,
    interval_terms,
    ostrowski_1d,
    ostrowski_from_terms,
    qiaoling_from_terms,
    qiaoling_functional,
    quarter_rule_from_terms,
    quarter_rule_functional,
    sarikaya_from_terms,
    sarikaya_functional,
)

# no longer called here; it stays importable from this module, where
# perfbench/tracing.py counts it
from .identity import full_expansion_derived  # noqa: F401

__all__ = [
    "UsageError",
    "CliInvocation",
    "VerifyReport",
    "parse_args",
    "run",
    "main",
]

SCHEMA_VERSION = "1"
RULE_ORDER = ("t1", "t2", "t3", "t4", "t5", "corrected")

_VERIFY_CFG = QuadConfig(gl_order=16, panels=1, abs_tol=1e-14)
_BOUNDS_GRID = 33
_BOUNDS_PAD = 0.25
# points of the grid on which g's derivative range is sampled
_DERIV_GRID = 129
# trials sampled together; smaller chunks hold smaller arrays but pay the
# per-call cost of numpy more often
_CHUNK_TRIALS = 64
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@lru_cache(maxsize=512)
def _bivariate_from_text(text: str) -> BivariateFunction:
    return to_bivariate(parse_expression(text))


@lru_cache(maxsize=512)
def _univariate_from_text(text: str):
    return to_univariate(parse_expression(text))


class UsageError(EngineError):
    """Invalid command line; maps to exit code 2."""


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    options: dict
    output_mode: str  # "text" or "json"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent forms such as -1.5e-05 and
        # would read them as options; subparsers are _Parser instances too
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ostrocube", add_help=True)
    sub = parser.add_subparsers(dest="subcommand")

    def common(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", dest="json_mode")
        p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
        p.add_argument("--out", type=str, default=None)

    def geometry(p: _Parser) -> None:
        p.add_argument("--f", type=str, required=True, dest="f")
        p.add_argument("--rect", type=float, nargs=4, required=True,
                       metavar=("A", "B", "C", "D"))
        p.add_argument("--point", type=float, nargs=2, default=None,
                       metavar=("X", "Y"))

    p = sub.add_parser("enclose", description="enclose the double integral of f")
    geometry(p)
    p.add_argument("--bounds", type=str, nargs="+", default=("auto",))
    p.add_argument("--subdivide", type=int, nargs=2, default=(1, 1),
                   metavar=("M", "N"))
    common(p)

    p = sub.add_parser("verify", description="audit the rule catalogue")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rules", type=str, default=",".join(RULE_ORDER))
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p.add_argument("--expect-hold", type=str, default="", dest="expect_hold")
    common(p)

    p = sub.add_parser("identity", description="audit the expansion identity")
    geometry(p)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)

    p = sub.add_parser("compare", description="compare certified error radii")
    geometry(p)
    p.add_argument("--bounds", type=str, nargs="+", default=("auto",))
    p.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p.add_argument("--tol", type=float, default=None)
    common(p)

    return parser


def _parse_bounds(raw: Sequence[str]) -> object:
    if len(raw) == 1 and raw[0] == "auto":
        return "auto"
    if len(raw) == 2:
        try:
            lo, hi = float(raw[0]), float(raw[1])
        except ValueError as exc:
            raise UsageError(f"--bounds expects two numbers or 'auto': {exc}")
        if lo > hi:
            raise UsageError(f"--bounds requires lower <= upper, got {lo} > {hi}")
        return [lo, hi]
    raise UsageError("--bounds expects two numbers or the word 'auto'")


def _validated_rect(values: Sequence[float]) -> list[float]:
    a, b, c, d = (float(v) for v in values)
    if a >= b or c >= d:
        raise UsageError(f"--rect requires a < b and c < d, got {a} {b} {c} {d}")
    return [a, b, c, d]


def _validated_expr(text: str) -> str:
    try:
        parse_expression(text)
    except EngineError as exc:
        raise UsageError(f"--f: {exc}")
    return text


def _validated_rules(text: str) -> list[str]:
    rules = [r for r in (part.strip() for part in text.split(",")) if r]
    for r in rules:
        if r not in RULE_ORDER:
            raise UsageError(
                f"--rules: unknown rule {r!r} (choose from {', '.join(RULE_ORDER)})"
            )
    return [r for r in RULE_ORDER if r in rules]


# built once and shared by every call; its list-valued defaults are tuples,
# so no caller can change them for the next
_PARSER = _build_parser()


def parse_args(argv: Sequence[str]) -> CliInvocation:
    ns = _PARSER.parse_args(list(argv))
    if ns.subcommand is None:
        raise UsageError("a subcommand is required: enclose, verify, identity, compare")
    opts: dict = {"out": ns.out, "no_timestamp": bool(ns.no_timestamp)}
    if ns.subcommand in ("enclose", "identity", "compare"):
        opts["f"] = _validated_expr(ns.f)
        opts["rect"] = _validated_rect(ns.rect)
        a, b, c, d = opts["rect"]
        if ns.point is not None:
            x, y = (float(v) for v in ns.point)
            if not (a <= x <= b and c <= y <= d):
                raise UsageError(f"--point ({x}, {y}) lies outside --rect")
            opts["point"] = [x, y]
        else:
            opts["point"] = None
    if ns.subcommand == "enclose":
        opts["bounds"] = _parse_bounds(ns.bounds)
        m, n = int(ns.subdivide[0]), int(ns.subdivide[1])
        if m < 1 or n < 1:
            raise UsageError(f"--subdivide requires positive cell counts, got {m} {n}")
        if max(m, n) > _MAX_AXIS_CELLS or m * n > _MAX_CELLS:
            raise UsageError(f"--subdivide {m} {n} is too fine: at most {_MAX_AXIS_CELLS} "
                             f"cells per axis and {_MAX_CELLS} in all")
        if (m, n) != (1, 1) and opts["point"] is not None:
            raise UsageError("--point applies to single-cell enclosures; drop it "
                             "or use --subdivide 1 1")
        opts["subdivide"] = [m, n]
    elif ns.subcommand == "verify":
        if ns.trials < 0:
            raise UsageError(f"--trials must be >= 0, got {ns.trials}")
        if not 0 <= ns.degree <= 6:
            raise UsageError(f"--degree must be in 0..6, got {ns.degree}")
        if not 0.0 <= ns.lam <= 1.0:
            raise UsageError(f"--lambda must lie in [0, 1], got {ns.lam}")
        opts.update(
            trials=int(ns.trials),
            seed=int(ns.seed),
            rules=_validated_rules(ns.rules),
            degree=int(ns.degree),
            lam=float(ns.lam),
            expect_hold=_validated_rules(ns.expect_hold) if ns.expect_hold else [],
        )
    elif ns.subcommand == "identity":
        if not (math.isfinite(ns.tol) and ns.tol > 0):
            raise UsageError(f"--tol must be finite and > 0, got {ns.tol}")
        opts["tol"] = float(ns.tol)
    elif ns.subcommand == "compare":
        opts["bounds"] = _parse_bounds(ns.bounds)
        if not 0.0 <= ns.lam <= 1.0:
            raise UsageError(f"--lambda must lie in [0, 1], got {ns.lam}")
        opts["lam"] = float(ns.lam)
        if ns.tol is not None and not (math.isfinite(ns.tol) and ns.tol >= 0):
            raise UsageError(f"--tol must be finite and >= 0, got {ns.tol}")
        opts["tol"] = None if ns.tol is None else float(ns.tol)
    mode = "json" if getattr(ns, "json_mode", False) else "text"
    return CliInvocation(subcommand=ns.subcommand, options=opts, output_mode=mode)


# ---------------------------------------------------------------------------
# verify harness
# ---------------------------------------------------------------------------

_FIXTURES_2D = (
    ("const-one", "1", 0.0, 0.0),
    ("bilinear", "t*s", 1.0, 1.0),
    ("affine-slab", "(1+t)*s", 1.0, 1.0),
)
_FIXTURES_1D = (
    ("linear-mid", "t", 0.5, 1.0, 1.0, 1.0),  # name, expr, x, |f'| bound, lo, hi
    ("square-mid", "t^2", 0.5, 2.0, 0.0, 2.0),
    ("square-left", "t^2", 0.0, 2.0, 0.0, 2.0),
)


# the rules that verify evaluates at the anchor p, from its anchor terms;
# t4 takes its own anchor q and the lambda
_RULES_2D = {
    "t3": sarikaya_from_terms,
    "t5": quarter_rule_from_terms,
    "corrected": corrected_from_terms,
}


def _eval_rule_case(rule: str, case: dict, q: QuadConfig) -> RuleOutcome:
    """Evaluate one recorded case from its record alone; the audit's own
    evaluation gives the same values, so re-running a record reproduces
    them."""
    if rule in ("t1", "t2"):
        iv = Interval1D(*case["interval"])
        g = _univariate_from_text(case["expr"])
        if rule == "t1":
            bound = DerivativeBound1D.abs_bound(case["magnitude"])
            return ostrowski_1d(g, iv, case["x"], bound, q)
        bound = DerivativeBound1D.from_range(case["lower"], case["upper"])
        return cheng_1d(g, iv, case["x"], bound, q)
    f = _bivariate_from_text(case["expr"])
    r = make_rectangle(*case["rect"])
    pt = make_point(r, *case["point"])
    db = DerivativeBounds(case["lower"], case["upper"])
    if rule == "t3":
        return sarikaya_functional(f, r, pt, db, q)
    if rule == "t4":
        return qiaoling_functional(f, r, pt, db, Lambda(case["lambda"]), q)
    if rule == "t5":
        return quarter_rule_functional(f, r, pt, db, q)
    if rule == "corrected":
        return corrected_from_terms(anchor_terms(f, r, [pt], q)[0], db)
    raise AssertionError(f"unknown rule {rule!r}")


def _sampled_deriv_range(g: UnivariateFunction, iv: Interval1D) -> tuple[float, float]:
    """Padded range of g's exact symbolic derivative over the interval,
    sampled through g.deriv_fn with no label of its own."""
    deriv = UnivariateFunction(fn=g.deriv_fn, vectorized=True)
    vals = sample_univariate(deriv, np.linspace(iv.lo, iv.hi, _DERIV_GRID))
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    pad = _BOUNDS_PAD * (hi - lo) + 1e-12
    return lo - pad, hi + pad


def _random_interval(rng: XorShift64Star) -> tuple[float, float]:
    # unit-scale domains keep the 1e-12-level slacks of the audit meaningful
    lo = rng.uniform(-1.0, 0.5)
    hi = lo + rng.uniform(0.4, 1.0 - lo)
    return lo, hi


class _Trial(NamedTuple):
    """One random trial as drawn: f's coefficient rows (f[i][j] multiplies
    t^i s^j) on rect = (a, b, c, d), the anchor p of t3, t5 and corrected
    and the anchor q of t4; g's coefficients (g[k] multiplies t^k) on
    interval, with the point x of t1 and t2."""

    index: int
    seed: int
    f: list
    rect: tuple
    p: tuple
    q: tuple
    g: list
    interval: tuple
    x: float


def _draw_trial(seed: int, index: int, degree: int, lam: float) -> _Trial:
    """Trial `index` of the corpus, from its own derived seed."""
    tseed = derive_seed(seed, index)
    rng = XorShift64Star(tseed)
    f = draw_polynomial(rng, degree)
    t_lo, t_hi = _random_interval(rng)
    s_lo, s_hi = _random_interval(rng)
    p = (rng.uniform(t_lo, t_hi), rng.uniform(s_lo, s_hi))
    bx_lo = t_lo + 0.5 * lam * (t_hi - t_lo)
    bx_hi = t_hi - 0.5 * lam * (t_hi - t_lo)
    by_lo = s_lo + 0.5 * lam * (s_hi - s_lo)
    by_hi = s_hi - 0.5 * lam * (s_hi - s_lo)
    q = (rng.uniform(bx_lo, bx_hi), rng.uniform(by_lo, by_hi))
    g = draw_polynomial_1d(rng, degree)
    i_lo, i_hi = _random_interval(rng)
    x = rng.uniform(i_lo, i_hi)
    return _Trial(index, tseed, f, (t_lo, t_hi, s_lo, s_hi), p, q, g, (i_lo, i_hi), x)


# one entry per --degree value
@lru_cache(maxsize=7)
def _templates(degree: int) -> tuple[Program, ...]:
    """Stacked programs of f, its mixed partial, g and g' for the trials of
    `--degree degree`, built on first use.

    The templates are the Horner trees of a full (degree+1) x (degree+1)
    polynomial and of a degree+1 coefficient univariate one, over slot
    constants, differentiated as to_bivariate and to_univariate do. The
    slots are distinct and neither 0 nor 1, so no unit law of simplify
    fires and every coefficient keeps its own node. A trial fills the
    slots with its coefficients, padded with zeros to the full degree. A
    padded node adds a signed zero to a nonzero value, which leaves it
    unchanged, so every sample equals the one the trial's own tree gives
    (the tree in which simplify has dropped those nodes).
    """
    n = degree + 1
    slots = [2.0 + j / 256.0 for j in range(n * n)]
    f = polynomial([slots[i * n:(i + 1) * n] for i in range(n)])
    g = polynomial_1d(slots[:n])
    trees = (f, differentiate(differentiate(f, "t"), "s"), g, differentiate(g, "t"))
    return tuple(stacked_program(e, slots) for e in trees)


def _no_unit_coefficient(coeffs: list) -> bool:
    """Whether no coefficient is 0 or 1: simplify would prune or shortcut
    such a coefficient's node in the trial's own tree, and the stacked
    samples are shown to equal its own only without them."""
    return 0.0 not in coeffs and 1.0 not in coeffs


def _finite_rows(values: np.ndarray) -> np.ndarray:
    """Per trial (leading axis), whether all of its values are finite."""
    return np.isfinite(values).reshape(len(values), -1).all(axis=1)


def _reduce(weights: np.ndarray, values: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """np.vecdot of weights and values over the last axis, in the layout
    that sampling each trial's own tree gives: the rows of the trials
    marked flat (their polynomial does not vary along these rows) are
    reduced as zero-stride rows of their first value."""
    out = np.vecdot(weights, values)
    if flat.any():
        rows = values[flat]
        out[flat] = np.vecdot(weights[flat], np.broadcast_to(rows[..., :1], rows.shape))
    return out


def _stacked_1d(trials: list, degree: int, ends: bool) -> list:
    """IntervalTerms and the padded derivative range of g for every
    trial, sampled for all trials at once; None for a trial whose samples
    must be taken on its own: one with a non-finite sample, a coefficient
    of 0 or 1, or x outside its interval (interval_terms raises)."""
    _, _, program_g, program_dg = _templates(degree)
    k, n = len(trials), degree + 1
    coeffs = np.zeros((k, n))
    for row, trial in zip(coeffs, trials):
        row[:len(trial.g)] = trial.g
    columns = coeffs.T[:, :, None]
    lo, hi = np.array([trial.interval for trial in trials]).T
    x = np.array([trial.x for trial in trials])
    nodes, weights = gl_nodes(lo, hi, _VERIFY_CFG)
    at = np.broadcast_to(run_program(program_g, np.stack((x, lo, hi), axis=1), 0.0, columns),
                         (k, 3))
    vals = np.broadcast_to(run_program(program_g, nodes, 0.0, columns), nodes.shape)
    integral = _reduce(weights, vals, np.array([len(trial.g) == 1 for trial in trials]))
    grid = np.linspace(lo, hi, _DERIV_GRID, axis=-1)
    deriv = np.broadcast_to(run_program(program_dg, grid, 0.0, columns), grid.shape)
    d_min, d_max = deriv.min(axis=1), deriv.max(axis=1)
    pad = _BOUNDS_PAD * (d_max - d_min) + 1e-12
    d_lo, d_hi = d_min - pad, d_max + pad
    ok = np.array([_no_unit_coefficient(trial.g) and trial.interval[0] <= trial.x
                   <= trial.interval[1] for trial in trials])
    ok &= (_finite_rows(at) & _finite_rows(vals) & np.isfinite(integral)
           & np.isfinite(d_lo) & np.isfinite(d_hi))
    out = []
    for trial, good, (at_x, at_lo, at_hi), value, dl, dh in zip(
            trials, ok.tolist(), at.tolist(), integral.tolist(), d_lo.tolist(), d_hi.tolist()):
        terms = IntervalTerms(iv=Interval1D(*trial.interval), x=trial.x, at_x=at_x,
                              at_lo=at_lo if ends else None, at_hi=at_hi if ends else None,
                              integral=value)
        out.append((terms, dl, dh) if good else None)
    return out


def _split_nodes(lo: np.ndarray, x: np.ndarray, hi: np.ndarray) -> tuple:
    """Nodes and weights of every trial's axis [lo, hi] split at x, shape
    (trials, 2 * nodes), as integrate_2d takes them for a split at x."""
    nodes, weights = gl_nodes(np.stack((lo, x), axis=1), np.stack((x, hi), axis=1), _VERIFY_CFG)
    return nodes.reshape(len(x), -1), weights.reshape(len(x), -1)


def _stacked_2d(trials: list, degree: int, anchors: tuple) -> list:
    """The AnchorTerms at `anchors` and the sampled mixed-partial bounds of
    f for every trial, sampled for all trials at once; None for a trial
    whose samples must be taken on its own: one with a non-finite sample,
    a coefficient of 0 or 1, or an anchor not strictly inside the
    rectangle (on an edge, the split double integral has one segment, not
    two)."""
    program_f, program_mixed, _, _ = _templates(degree)
    k, n = len(trials), degree + 1
    coeffs = np.zeros((k, n * n))
    for row, trial in zip(coeffs, trials):
        for i, f_row in enumerate(trial.f):
            row[i * n:i * n + len(f_row)] = f_row
    columns = coeffs.T[:, :, None, None]
    rect = np.array([trial.rect for trial in trials])
    t_lo, t_hi, s_lo, s_hi = rect.T
    flat_t = np.array([len(trial.f) == 1 for trial in trials])
    flat_s = np.array([len(trial.f[0]) == 1 for trial in trials])

    def f_at(ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(ts.shape, ss.shape)
        return np.broadcast_to(run_program(program_f, ts, ss, columns), shape)

    # mixed-partial bounds as estimate_bounds samples them: one linspace
    # over the starts (a, c) and ends (b, d) of each trial
    axes = np.linspace(rect[:, 0::2], rect[:, 1::2], _BOUNDS_GRID, axis=-1)
    mixed = run_program(program_mixed, axes[:, 0, :, None], axes[:, 1, None, :], columns)
    mixed = np.broadcast_to(mixed, (k, _BOUNDS_GRID, _BOUNDS_GRID))
    m_lo, m_hi = mixed.min(axis=(1, 2)), mixed.max(axis=(1, 2))
    pad = _BOUNDS_PAD * (m_hi - m_lo) + 1e-12
    lower, upper = m_lo - pad, m_hi + pad
    ok = _finite_rows(mixed) & np.isfinite(lower) & np.isfinite(upper)
    del mixed
    ok &= [_no_unit_coefficient([value for row in trial.f for value in row])
           for trial in trials]
    xy = np.array([[getattr(trial, name) for name in anchors] for trial in trials])
    x, y = xy[:, :, 0], xy[:, :, 1]
    ok &= ((t_lo[:, None] < x) & (x < t_hi[:, None])
           & (s_lo[:, None] < y) & (y < s_hi[:, None])).all(axis=1)

    # the anchors' coordinates first, then the edges, as anchor_terms
    # takes them
    at_t = np.concatenate((x, rect[:, :2]), axis=1)
    at_s = np.concatenate((y, rect[:, 2:]), axis=1)
    points = f_at(at_t[:, :, None], at_s[:, None, :])
    tn, tw = gl_nodes(t_lo, t_hi, _VERIFY_CFG)
    sn, sw = gl_nodes(s_lo, s_hi, _VERIFY_CFG)
    lines_t = f_at(tn[:, None, :], at_s[:, :, None])
    lines_s = f_at(at_t[:, :, None], sn[:, None, :])
    ok &= _finite_rows(points) & _finite_rows(lines_t) & _finite_rows(lines_s)
    along_t = _reduce(tw[:, None, :], lines_t, flat_t).tolist()
    along_s = _reduce(sw[:, None, :], lines_s, flat_s).tolist()
    del lines_t, lines_s

    # the double integral split at each anchor, one `tw @ grid @ sw` per
    # trial as integrate_2d takes it: a constant's grid stays zero-stride
    constant = (flat_t & flat_s).tolist()
    doubles = []
    for a in range(len(anchors)):
        tn, tw = _split_nodes(t_lo, x[:, a], t_hi)
        sn, sw = _split_nodes(s_lo, y[:, a], s_hi)
        grids = f_at(tn[:, :, None], sn[:, None, :])
        finite = _finite_rows(grids)
        ok &= finite
        double = [None] * k
        for j in np.flatnonzero(finite):
            grid = (np.broadcast_to(grids[j, 0, 0], grids.shape[1:]) if constant[j]
                    else np.ascontiguousarray(grids[j]))
            double[j] = float(tw[j] @ grid @ sw[j])
        doubles.append(double)
        del grids

    out = []
    last = len(anchors)
    for j, (trial, good, values) in enumerate(zip(trials, ok.tolist(), points.tolist())):
        if not good:
            out.append(None)
            continue
        r = make_rectangle(*trial.rect)
        terms = []
        for a, name in enumerate(anchors):
            nodes = (a, last, last + 1)
            terms.append(AnchorTerms(
                rect=r,
                point=make_point(r, *getattr(trial, name)),
                values=tuple(tuple(values[u][v] for v in nodes) for u in nodes),
                along_t=tuple(along_t[j][u] for u in nodes),
                along_s=tuple(along_s[j][u] for u in nodes),
                double=doubles[a][j],
            ))
        out.append((terms, DerivativeBounds(lower[j], upper[j])))
    return out


def _trial_terms_1d(trial: _Trial, ends: bool) -> tuple:
    """What _stacked_1d gives for one trial, through the public functions
    on the trial's own tree."""
    g = to_univariate(polynomial_1d(trial.g))
    iv = Interval1D(*trial.interval)
    d_lo, d_hi = _sampled_deriv_range(g, iv)
    return interval_terms(g, iv, trial.x, _VERIFY_CFG, ends=ends), d_lo, d_hi


def _trial_terms_2d(trial: _Trial, anchors: tuple) -> tuple:
    """What _stacked_2d gives for one trial, through the public functions
    on the trial's own tree."""
    f = to_bivariate(polynomial(trial.f))
    r = make_rectangle(*trial.rect)
    db = estimate_bounds(f, r, grid_n=_BOUNDS_GRID, pad_rel=_BOUNDS_PAD)
    points = [make_point(r, *getattr(trial, name)) for name in anchors]
    return anchor_terms(f, r, points, _VERIFY_CFG), db


def _trial_case_1d(trial: _Trial):
    """Maker of the shared fields of a trial's t1 and t2 records."""
    return lambda: {"source": f"trial:{trial.index}", "seed": trial.seed,
                    "expr": to_string(polynomial_1d(trial.g)),
                    "interval": list(trial.interval), "x": trial.x}


def _trial_case_2d(trial: _Trial, db: DerivativeBounds):
    """Maker of the shared fields of a trial's two-variable records."""
    return lambda: {"source": f"trial:{trial.index}", "seed": trial.seed,
                    "expr": to_string(polynomial(trial.f)), "rect": list(trial.rect),
                    "lower": db.lower, "upper": db.upper}


class _RuleTally:
    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.rechecks = 0
        self.worst_gap: Optional[float] = None
        self.worst_case: Optional[dict] = None

    def record(self, outcome: RuleOutcome, case, extra: dict) -> None:
        """Count one outcome; case() and extra make up its record, which is
        made only if the outcome is the worst so far."""
        self.trials += 1
        gap = outcome.gap
        if self.worst_gap is None or gap > self.worst_gap:
            self.worst_gap = gap
            self.worst_case = dict(case(), **extra, lhs=outcome.lhs, rhs=outcome.rhs)

    def summary(self) -> dict:
        assert self.violations <= self.trials
        return {
            "trials": self.trials,
            "violations": self.violations,
            "rechecks": self.rechecks,
            "worst_gap": self.worst_gap,
            "worst_case": self.worst_case,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Audit outcome: per-rule tallies with self-reproducing worst cases
    (re-running a worst_case record through the same rule reproduces its
    recorded lhs and rhs exactly), the corpus descriptor, tool version."""

    rules: dict
    corpus: dict
    tool_version: str

    def as_results(self) -> dict:
        return {
            "rules": self.rules,
            "corpus": self.corpus,
            "tool_version": self.tool_version,
        }


def _run_verify(opts: dict) -> tuple[dict, dict, int]:
    """The rule audit: the fixtures, then the random trials in chunks.

    Every trial of a chunk is drawn first (each from its own derived seed,
    so the order of drawing does not matter), then the chunk is sampled
    together: f, its mixed partial, g and g' at every point, line, double
    integral and bound-grid node of all its trials, through the stacked
    templates of `--degree` (_stacked_1d, _stacked_2d). The rules, tallies
    and re-checks then run trial by trial, in trial order, on the
    IntervalTerms and AnchorTerms built from those samples. Where the
    stacked samples of a trial's g or f are not shown to keep its bits, or
    one is non-finite, that part of the trial goes through interval_terms,
    estimate_bounds and anchor_terms on its own trees instead
    (_trial_terms_1d, _trial_terms_2d), which also raise the errors a bad
    sample calls for. A record's polynomial text is printed only when
    the record is kept (a worst case) or re-checked.
    """
    rules = opts["rules"]
    lam = opts["lam"]
    degree = opts["degree"]
    tallies = {rule: _RuleTally() for rule in rules}
    ends = "t2" in tallies
    p_rules = [rule for rule in _RULES_2D if rule in tallies]
    anchors = ("p",) * bool(p_rules) + ("q",) * ("t4" in tallies)

    def apply(rule: str, case, extra: dict, outcome: RuleOutcome) -> None:
        tally = tallies[rule]
        if not outcome.satisfied and rule in ("t3", "t4"):
            # independent recomputation from the record before a violation
            # is reported
            tally.rechecks += 1
            outcome = _eval_rule_case(rule, dict(case(), **extra), _VERIFY_CFG.refined())
        if not outcome.satisfied:
            tally.violations += 1
        tally.record(outcome, case, extra)

    def audit_1d(terms: IntervalTerms, case, magnitude: float, lower: float,
                 upper: float) -> None:
        # t1 and t2 read one integral and the same point values
        if "t1" in tallies:
            apply("t1", case, {"magnitude": magnitude},
                  ostrowski_from_terms(terms, DerivativeBound1D.abs_bound(magnitude)))
        if "t2" in tallies:
            apply("t2", case, {"lower": lower, "upper": upper},
                  cheng_from_terms(terms, DerivativeBound1D.from_range(lower, upper)))

    def audit_2d(terms: list, db: DerivativeBounds, case, p: list, q: list) -> None:
        # t3, t5 and corrected at p, t4 at q, from one set of anchor terms
        for rule in p_rules:
            apply(rule, case, {"point": p}, _RULES_2D[rule](terms[0], db))
        if "t4" in tallies:
            apply("t4", case, {"point": q, "lambda": lam},
                  qiaoling_from_terms(terms[-1], db, Lambda(lam)))

    one_variable = "t1" in tallies or "t2" in tallies
    two_variable = bool(anchors)

    for name, text, x, magnitude, lo, hi in _FIXTURES_1D:
        if one_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "interval": [0.0, 1.0], "x": x}
            terms = interval_terms(_univariate_from_text(text), Interval1D(0.0, 1.0), x,
                                   _VERIFY_CFG, ends=ends)
            audit_1d(terms, lambda base=base: base, magnitude, lo, hi)

    unit = make_rectangle(0.0, 1.0, 0.0, 1.0)
    centre = make_point(unit, 0.5, 0.5)
    for name, text, lo, hi in _FIXTURES_2D:
        if two_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "rect": [0.0, 1.0, 0.0, 1.0], "point": [0.5, 0.5],
                    "lower": lo, "upper": hi}
            terms = anchor_terms(_bivariate_from_text(text), unit, [centre] * len(anchors),
                                 _VERIFY_CFG)
            audit_2d(terms, DerivativeBounds(lo, hi), lambda base=base: base,
                     [0.5, 0.5], [0.5, 0.5])

    for start in range(0, opts["trials"], _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, opts["trials"])
        chunk = [_draw_trial(opts["seed"], k, degree, lam) for k in range(start, stop)]
        unused = [None] * len(chunk)
        stacked_1d = _stacked_1d(chunk, degree, ends) if one_variable else unused
        stacked_2d = _stacked_2d(chunk, degree, anchors) if two_variable else unused
        for trial, one, two in zip(chunk, stacked_1d, stacked_2d):
            if one_variable:
                terms, d_lo, d_hi = one or _trial_terms_1d(trial, ends)
                audit_1d(terms, _trial_case_1d(trial), max(abs(d_lo), abs(d_hi)),
                         d_lo, d_hi)
            if two_variable:
                terms, db = two or _trial_terms_2d(trial, anchors)
                audit_2d(terms, db, _trial_case_2d(trial, db), list(trial.p), list(trial.q))

    report = VerifyReport(
        rules={rule: tallies[rule].summary() for rule in rules},
        corpus={
            "trials": opts["trials"],
            "seed": opts["seed"],
            "degree": opts["degree"],
            "lambda": lam,
            "fixtures_1d": [name for name, *_ in _FIXTURES_1D],
            "fixtures_2d": [name for name, *_ in _FIXTURES_2D],
            "domain": [-1.0, 1.0],
        },
        tool_version=__version__,
    )
    results = report.as_results()
    total_violations = sum(t.violations for t in tallies.values())
    exit_code = 0
    for rule in opts["expect_hold"]:
        if rule in tallies and tallies[rule].violations > 0:
            exit_code = 3
    flags = {"rigorous": False, "violations": total_violations}
    return results, flags, exit_code


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------


def _resolve_point(r: Rectangle, coords: Optional[list]) -> EvalPoint:
    if coords is None:
        return r.center
    return make_point(r, coords[0], coords[1])


def _run_enclose(opts: dict) -> tuple[dict, dict, int]:
    f = to_bivariate(parse_expression(opts["f"]))
    r = make_rectangle(*opts["rect"])
    m, n = opts["subdivide"]
    q = QuadConfig()
    estimated = opts["bounds"] == "auto"
    if (m, n) == (1, 1):
        pt = _resolve_point(r, opts["point"])
        if estimated:
            db = estimate_bounds(f, r, grid_n=_BOUNDS_GRID, pad_rel=0.05)
        else:
            db = DerivativeBounds(*opts["bounds"])
        report = single_cell_enclosure(f, r, pt, db, q, bounds_estimated=estimated)
    else:
        bounds = None if estimated else DerivativeBounds(*opts["bounds"])
        report = composite_enclosure(f, r, bounds, m, n, q)
    results = {
        "enclosure": {
            "lo": report.enclosure.lo,
            "hi": report.enclosure.hi,
            "center": report.enclosure.center,
            "width": report.enclosure.width,
        },
        "point_used": [report.point_used.x, report.point_used.y],
        "bounds_used": {"lower": report.bounds_used.lower,
                        "upper": report.bounds_used.upper},
        "cells": report.cells,
        "per_cell_width": list(report.per_cell_width or []),
        "quadrature_padding": report.quadrature_padding,
        "rigorous": report.rigorous,
    }
    return results, {"rigorous": report.rigorous, "violations": 0}, 0


def _run_identity(opts: dict) -> tuple[dict, dict, int]:
    f = to_bivariate(parse_expression(opts["f"]))
    r = make_rectangle(*opts["rect"])
    pt = _resolve_point(r, opts["point"])
    report = identity_report(f, r, pt, QuadConfig(), tol=opts["tol"])
    results = {
        "oracle": report.oracle_value,
        "verbatim": report.verbatim_value,
        "derived": report.derived_value,
        "per_quadrant": {
            quad.value: {
                "verbatim": comp.verbatim,
                "derived": comp.derived,
                "oracle": comp.oracle,
            }
            for quad, comp in report.per_quadrant.items()
        },
        "max_abs_discrepancy_verbatim": report.max_abs_discrepancy_verbatim,
        "max_abs_discrepancy_derived": report.max_abs_discrepancy_derived,
        "status_ok": report.status_ok,
        "tol": report.tol,
    }
    flags = {"rigorous": True, "violations": 0 if report.status_ok else 1}
    return results, flags, 0


def _run_compare(opts: dict) -> tuple[dict, dict, int]:
    f = to_bivariate(parse_expression(opts["f"]))
    r = make_rectangle(*opts["rect"])
    pt = _resolve_point(r, opts["point"])
    estimated = opts["bounds"] == "auto"
    if estimated:
        db = estimate_bounds(f, r, grid_n=_BOUNDS_GRID, pad_rel=0.05)
    else:
        db = DerivativeBounds(*opts["bounds"])
    report = compare_bounds(f, r, pt, db, Lambda(opts["lam"]), QuadConfig(),
                            slack=opts["tol"])
    results = {
        "bounds_used": {"lower": db.lower, "upper": db.upper},
        "lhs": report.lhs,
        "widths": report.widths,
        "violated": report.violated,
    }
    violations = sum(1 for v in report.violated.values() if v)
    # the same anchor check that enclose --point makes
    rigorous = not estimated and _bounds_hold_at(f, db, [pt.x], [pt.y])
    flags = {"rigorous": rigorous, "violations": violations}
    return results, flags, 0


def _echo_inputs(inv: CliInvocation) -> dict:
    skip = {"out", "no_timestamp"}
    return {k: v for k, v in inv.options.items() if k not in skip}


def _emit_text(doc: dict, stream) -> None:
    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, list):
            stream.write(f"{prefix} = {json.dumps(value)}\n")
        else:
            rendered = repr(value) if isinstance(value, float) else json.dumps(value)
            stream.write(f"{prefix} = {rendered}\n")

    stream.write(f"ostrocube {doc['subcommand']} (schema {doc['schema_version']})\n")
    walk("results", doc["results"])
    walk("flags", doc["flags"])
    stream.write(f"runtime_ms = {doc['runtime_ms']}\n")


def _render_json(doc: dict) -> str:
    """json.dumps(doc, indent=2). With indent, json encodes in pure Python,
    float by float; the per-cell widths of an enclose grid (up to 2^20 of
    them) are joined with float.__repr__ instead, which json uses for a
    finite float, at the same indentation."""
    widths = doc["results"].get("per_cell_width")
    if not widths or not all(type(w) is float and math.isfinite(w) for w in widths):
        return json.dumps(doc, indent=2)
    text = json.dumps(dict(doc, results=dict(doc["results"], per_cell_width=[])), indent=2)
    body = ",\n      ".join(map(float.__repr__, widths))
    # a key in a string value would have its quotes escaped
    return text.replace('\n    "per_cell_width": []',
                        f'\n    "per_cell_width": [\n      {body}\n    ]', 1)


def run(inv: CliInvocation, stdout=None) -> int:
    """Execute one invocation, write its report, return the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    started = time.perf_counter()
    try:
        if inv.subcommand == "enclose":
            results, flags, code = _run_enclose(inv.options)
        elif inv.subcommand == "verify":
            results, flags, code = _run_verify(inv.options)
        elif inv.subcommand == "identity":
            results, flags, code = _run_identity(inv.options)
        elif inv.subcommand == "compare":
            results, flags, code = _run_compare(inv.options)
        else:
            raise UsageError(f"unknown subcommand {inv.subcommand!r}")
    except UsageError:
        raise
    except PointOutsideLambdaBox as exc:
        # bad --point / --lambda combination, not a numerical failure
        raise UsageError(str(exc))
    except (NonFiniteSample, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = 0 if inv.options.get("no_timestamp") else int(
        round(1000.0 * (time.perf_counter() - started))
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": inv.subcommand,
        "inputs": _echo_inputs(inv),
        "results": results,
        "flags": flags,
        "runtime_ms": elapsed_ms,
    }
    rendered = _render_json(doc) + "\n"
    if inv.options.get("out"):
        with open(inv.options["out"], "w", encoding="utf-8") as fh:
            fh.write(rendered)
    if inv.output_mode == "json":
        stream.write(rendered)
    else:
        _emit_text(doc, stream)
    return code


def run_main(argv: Sequence[str]) -> int:
    try:
        inv = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(inv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
