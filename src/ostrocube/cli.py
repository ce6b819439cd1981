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
import os
import re
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
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
    unchecked,
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
    XorShift64Star,
    derive_seed,
    draw_polynomial,
    draw_polynomial_1d,
    parse_expression,
    polynomial,
    polynomial_1d,
    to_bivariate,
    to_string,
    to_univariate,
)
from .identity import corrected_from_terms, identity_report
from .quadrature import NonFiniteSample, estimate_bounds, sample_univariate
from .rules import (
    Lambda,
    PointOutsideLambdaBox,
    RuleOutcome,
    _require_lambda_box,
    anchor_terms,
    cheng_1d,
    cheng_from_terms,
    in_lambda_box,
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

from .stacked import AnchorSamples, IntervalSamples, join, rows, sample_1d, sample_2d
from .stacked import BOUNDS_GRID as _BOUNDS_GRID
from .stacked import BOUNDS_PAD as _BOUNDS_PAD
from .stacked import DERIV_GRID as _DERIV_GRID
from .stacked import VERIFY_CFG as _VERIFY_CFG

# no longer called here; they stay importable from this module, where
# perfbench/tracing.py counts them
from .expr import differentiate  # noqa: F401
from .identity import full_expansion_derived  # noqa: F401

__all__ = [
    "UsageError",
    "CliInvocation",
    "parse_args",
    "run",
    "main",
]

SCHEMA_VERSION = "1"
RULE_ORDER = ("t1", "t2", "t3", "t4", "t5", "corrected")

# trials sampled together; the buffers that stacked keeps for a chunk's
# grids grow to its largest grid (1 MiB and 0.5 MiB at 64 trials and two
# anchors), and smaller chunks pay the per-call cost of numpy more often
_CHUNK_TRIALS = 64
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)


@lru_cache(maxsize=512)
def _bivariate_from_text(text: str) -> BivariateFunction:
    return to_bivariate(parse_expression(text))


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
        # argparse's own pattern misses exponent forms such as -1.5e-05,
        # -inf and -nan and would read them as options; subparsers are
        # _Parser instances too
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
        _require_finite("--bounds", lo, hi)
        if lo > hi:
            raise UsageError(f"--bounds requires lower <= upper, got {lo} > {hi}")
        return [lo, hi]
    raise UsageError("--bounds expects two numbers or the word 'auto'")


def _require_finite(option: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{option} must be finite, got {' '.join(map(str, values))}")


def _validated_rect(values: Sequence[float]) -> list[float]:
    a, b, c, d = (float(v) for v in values)
    _require_finite("--rect", a, b, c, d)
    if a >= b or c >= d:
        raise UsageError(f"--rect requires a < b and c < d, got {a} {b} {c} {d}")
    return [a, b, c, d]


def _validated_expr(text: str) -> str:
    """The text, once it parses: the function it parses to is cached, and
    the run takes it from the cache."""
    try:
        _bivariate_from_text(text)
    except EngineError as exc:
        raise UsageError(f"--f: {exc}")
    except RecursionError:
        # the parser, differentiate and printing recurse along the nesting
        raise UsageError("--f: the expression is nested too deeply")
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
            _require_finite("--point", x, y)
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
        unaudited = [r for r in opts["expect_hold"] if r not in opts["rules"]]
        if unaudited:
            raise UsageError("--expect-hold names rules that --rules leaves out: "
                             + ", ".join(unaudited))
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
        g = to_univariate(parse_expression(case["expr"]))
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
        return corrected_from_terms(anchor_terms(f, r, pt, q), db)
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


# one entry per anchor count that a --rules subset gives
@lru_cache(maxsize=3)
def _fixture_samples(anchors: int) -> tuple:
    """The fixtures' samples (1D, then 2D or None without anchors), taken
    once per process: unlike a trial's, they depend on nothing but the
    number of anchors. Every call shares them, read-only."""
    n = len(_FIXTURES_1D)
    xs = np.array([x for _, _, x, *_ in _FIXTURES_1D])
    one = IntervalSamples(np.tile([0.0, 1.0], (n, 1)), xs, np.zeros((n, 3)), *np.zeros((4, n)))
    for j, (_, text, x, magnitude, lo, hi) in enumerate(_FIXTURES_1D):
        g = to_univariate(parse_expression(text))
        one.put(j, interval_terms(g, Interval1D(0.0, 1.0), x, _VERIFY_CFG), lo, hi, magnitude)
    two = None
    if anchors:
        n = len(_FIXTURES_2D)
        two = AnchorSamples(np.tile([0.0, 1.0, 0.0, 1.0], (n, 1)), np.full((n, anchors, 2), 0.5),
                         np.zeros((n, anchors + 2, anchors + 2)), np.zeros((n, anchors + 2)),
                         np.zeros((n, anchors + 2)), np.zeros((n, anchors)), *np.zeros((2, n)))
        unit = make_rectangle(0.0, 1.0, 0.0, 1.0)
        centre = make_point(unit, 0.5, 0.5)
        for j, (_, text, lo, hi) in enumerate(_FIXTURES_2D):
            terms = anchor_terms(_bivariate_from_text(text), unit, centre, _VERIFY_CFG)
            two.put(j, [terms] * anchors, DerivativeBounds(lo, hi))
    for field in (*one, *(two or ())):
        field.flags.writeable = False
    return one, two


def _fixture_case_1d(j: int) -> dict:
    name, text, x, *_ = _FIXTURES_1D[j]
    return {"source": f"fixture:{name}", "seed": None, "expr": text, "interval": [0.0, 1.0],
            "x": x}


def _fixture_case_2d(j: int) -> dict:
    name, text, lo, hi = _FIXTURES_2D[j]
    return {"source": f"fixture:{name}", "seed": None, "expr": text,
            "rect": [0.0, 1.0, 0.0, 1.0], "point": [0.5, 0.5], "lower": lo, "upper": hi}


def _trial_terms_1d(trial: _Trial) -> tuple:
    """What stacked.sample_1d gives for one trial, through the public
    functions on the trial's own tree."""
    g = to_univariate(polynomial_1d(trial.g))
    iv = Interval1D(*trial.interval)
    d_lo, d_hi = _sampled_deriv_range(g, iv)
    return interval_terms(g, iv, trial.x, _VERIFY_CFG), d_lo, d_hi


def _trial_terms_2d(trial: _Trial, anchors: tuple) -> tuple:
    """What stacked.sample_2d gives for one trial, through the public
    functions on the trial's own tree."""
    f = to_bivariate(polynomial(trial.f))
    r = make_rectangle(*trial.rect)
    db = estimate_bounds(f, r, grid_n=_BOUNDS_GRID, pad_rel=_BOUNDS_PAD)
    points = [make_point(r, *getattr(trial, name)) for name in anchors]
    return [anchor_terms(f, r, pt, _VERIFY_CFG) for pt in points], db


def _trial_case_1d(trial: _Trial) -> dict:
    """The shared fields of a trial's t1 and t2 records."""
    return {"source": f"trial:{trial.index}", "seed": trial.seed,
            "expr": to_string(polynomial_1d(trial.g)), "interval": list(trial.interval),
            "x": trial.x}


def _trial_case_2d(trial: _Trial, lower: float, upper: float) -> dict:
    """The shared fields of a trial's two-variable records."""
    return {"source": f"trial:{trial.index}", "seed": trial.seed,
            "expr": to_string(polynomial(trial.f)), "rect": list(trial.rect),
            "lower": lower, "upper": upper}


def _first_worst(gaps: np.ndarray, worst: Optional[float]) -> Optional[int]:
    """The entry that a scan of gaps in order, taking each gap larger than
    the worst so far (None before the first), takes last; None if it takes
    none. No gap is larger than NaN, and NaN is larger than none."""
    start, taken = 0, None
    if worst is None:
        start, taken, worst = 1, 0, gaps[0]
    rest = gaps[start:]
    larger = rest > worst
    if larger.any():
        taken = start + int(np.argmax(rest == rest[larger].max()))
    return taken


class _RuleTally:
    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.rechecks = 0
        self.worst_gap: Optional[float] = None
        self.worst_case: Optional[dict] = None

    def record(self, outcome: RuleOutcome, record) -> None:
        """Count a column of outcomes, in trial order. record(j) makes the
        record of entry j; it is made only for the entry that is the worst
        case after this column (the first of the largest gaps)."""
        gaps = outcome.gap
        self.trials += len(gaps)
        self.violations += int(np.count_nonzero(~outcome.satisfied))
        j = _first_worst(gaps, self.worst_gap)
        if j is not None:
            self.worst_gap = float(gaps[j])
            self.worst_case = dict(record(j), lhs=float(outcome.lhs[j]),
                                   rhs=float(outcome.rhs[j]))

    def summary(self) -> dict:
        assert self.violations <= self.trials
        return {
            "trials": self.trials,
            "violations": self.violations,
            "rechecks": self.rechecks,
            "worst_gap": self.worst_gap,
            "worst_case": self.worst_case,
        }


def _run_verify(opts: dict) -> tuple[dict, dict, int]:
    """The rule audit: the fixtures, then the random trials in chunks.

    Every trial of a chunk is drawn first (each from its own derived seed,
    so the order of drawing does not matter), then the chunk is sampled
    together: f, its mixed partial, g and g' at every point, line, double
    integral and bound-grid node of all its trials, through Horner
    recurrences over the trials' coefficients padded to `--degree`
    (stacked.sample_1d, stacked.sample_2d). Where
    the stacked samples of a trial's g or f are not shown to keep its
    bits, or one is non-finite, that part of the trial goes through
    interval_terms, estimate_bounds and anchor_terms (once per anchor) on
    its own trees instead (_trial_terms_1d, _trial_terms_2d), which also
    raise the errors a bad sample calls for, and its terms are written
    into the chunk's rows.

    Each rule then runs once per chunk, on columns with one entry per
    trial: the same rules.*_from_terms functions that take one case take
    the columns (IntervalSamples.terms, AnchorSamples.terms). The
    fixtures' rows are taken once per process (_fixture_samples) and
    audited in front of the first chunk's. Each tally counts the
    chunk's violations and takes its worst case in trial order; t3 and t4
    re-check each violation from its record first. A record's polynomial
    text is printed only when the record is kept or re-checked. A trial
    that raises (a bad sample on its own trees, or t4's anchor outside its
    box) raises once the trials before it are audited.
    """
    rules = opts["rules"]
    lam = opts["lam"]
    degree = opts["degree"]
    tallies = {rule: _RuleTally() for rule in rules}
    p_rules = [rule for rule in _RULES_2D if rule in tallies]
    anchors = ("p",) * bool(p_rules) + ("q",) * ("t4" in tallies)
    at_q = len(anchors) - 1
    one_variable = "t1" in tallies or "t2" in tallies
    two_variable = bool(anchors)

    def tally(rule: str, outcome: RuleOutcome, record) -> None:
        if rule in ("t3", "t4"):
            # independent recomputation from the record before a violation
            # is reported
            for j in np.flatnonzero(~outcome.satisfied).tolist():
                tallies[rule].rechecks += 1
                again = _eval_rule_case(rule, record(j), _VERIFY_CFG.refined())
                outcome.lhs[j], outcome.rhs[j] = again.lhs, again.rhs
                outcome.satisfied[j] = again.satisfied
        tallies[rule].record(outcome, record)

    def audit_1d(s: IntervalSamples, case) -> None:
        # t1 and t2 read one integral and the same point values
        terms = s.terms()
        if "t1" in tallies:
            bound = unchecked(DerivativeBound1D, kind="abs", lower=-s.magnitude,
                              upper=s.magnitude)
            tally("t1", ostrowski_from_terms(terms, bound),
                  lambda j: dict(case(j), magnitude=float(s.magnitude[j])))
        if "t2" in tallies:
            bound = unchecked(DerivativeBound1D, kind="range", lower=s.lower, upper=s.upper)
            tally("t2", cheng_from_terms(terms, bound),
                  lambda j: dict(case(j), lower=float(s.lower[j]), upper=float(s.upper[j])))

    def audit_2d(s: AnchorSamples, case) -> None:
        # t3, t5 and corrected at p, t4 at q, from one set of samples
        db = unchecked(DerivativeBounds, lower=s.lower, upper=s.upper)
        if p_rules:
            terms = s.terms(0)
            for rule in p_rules:
                tally(rule, _RULES_2D[rule](terms, db),
                      lambda j: dict(case(j), point=s.xy[j, 0].tolist()))
        if "t4" in tallies:
            tally("t4", qiaoling_from_terms(s.terms(at_q), db, Lambda(lam)),
                  lambda j: dict(case(j), point=s.xy[j, at_q].tolist(), **{"lambda": lam}))

    def per_trial(chunk: list, one, two) -> tuple[int, Optional[EngineError]]:
        """Take on its own, in trial order, each trial part that stacking
        cannot give, and raise t4's error for an anchor outside its box.
        Returns how many leading trials can be audited, and the error of
        the next one (None if there is none)."""
        own_1d = set() if one is None else set(np.flatnonzero(~one[1]).tolist())
        own_2d = set() if two is None else set(np.flatnonzero(~two[1]).tolist())
        outside = set()
        if "t4" in tallies:
            at = two[0].terms(at_q)
            outside = set(np.flatnonzero(~in_lambda_box(at.rect, at.point, lam)).tolist())
        for j in sorted(own_1d | own_2d | outside):
            trial = chunk[j]
            try:
                if j in own_1d:
                    terms, d_lo, d_hi = _trial_terms_1d(trial)
                    magnitude = max(abs(d_lo), abs(d_hi))
                    # the bounds t1 and t2 take raise on a non-finite range
                    if "t1" in tallies:
                        DerivativeBound1D.abs_bound(magnitude)
                    if "t2" in tallies:
                        DerivativeBound1D.from_range(d_lo, d_hi)
                    one[0].put(j, terms, d_lo, d_hi, magnitude)
                if j in own_2d:
                    two[0].put(j, *_trial_terms_2d(trial, anchors))
                if j in outside:
                    r = make_rectangle(*trial.rect)
                    _require_lambda_box(r, make_point(r, *trial.q), lam)
            except EngineError as exc:
                return j, exc
        return len(chunk), None

    def audit(fixtures, chunk: list, one, two) -> None:
        """Audit the fixtures' rows (unless fixtures is None), then those of
        the chunk's trials (one, two: their samples), as one column."""
        if one_variable:
            s, lead = join(fixtures and fixtures[0], one)
            audit_1d(s, lambda j: _fixture_case_1d(j) if j < lead
                     else _trial_case_1d(chunk[j - lead]))
        if two_variable:
            s, lead = join(fixtures and fixtures[1], two)
            audit_2d(s, lambda j: _fixture_case_2d(j) if j < lead
                     else _trial_case_2d(chunk[j - lead], float(s.lower[j]), float(s.upper[j])))

    # the fixtures' rows are audited in front of the first chunk's
    fixtures = _fixture_samples(len(anchors))
    for start in range(0, opts["trials"], _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, opts["trials"])
        chunk = [_draw_trial(opts["seed"], k, degree, lam) for k in range(start, stop)]
        one = sample_1d(chunk, degree) if one_variable else None
        two = sample_2d(chunk, degree, anchors) if two_variable else None
        n, error = per_trial(chunk, one, two)
        if fixtures is not None or n:
            audit(fixtures, chunk, one and rows(one[0], n), two and rows(two[0], n))
        fixtures = None
        if error is not None:
            raise error
    if fixtures is not None:
        audit(fixtures, [], None, None)

    results = {
        "rules": {rule: tallies[rule].summary() for rule in rules},
        "corpus": {
            "trials": opts["trials"],
            "seed": opts["seed"],
            "degree": opts["degree"],
            "lambda": lam,
            "fixtures_1d": [name for name, *_ in _FIXTURES_1D],
            "fixtures_2d": [name for name, *_ in _FIXTURES_2D],
            "domain": [-1.0, 1.0],
        },
        "tool_version": __version__,
    }
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
    f = _bivariate_from_text(opts["f"])
    r = make_rectangle(*opts["rect"])
    m, n = opts["subdivide"]
    q = QuadConfig()
    estimated = opts["bounds"] == "auto"
    if (m, n) == (1, 1):
        pt = _resolve_point(r, opts["point"])
        if estimated:
            db = estimate_bounds(f, r)
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
    f = _bivariate_from_text(opts["f"])
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
    f = _bivariate_from_text(opts["f"])
    r = make_rectangle(*opts["rect"])
    pt = _resolve_point(r, opts["point"])
    estimated = opts["bounds"] == "auto"
    if estimated:
        db = estimate_bounds(f, r)
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


def _render_json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), for a value whose line breaks are
    followed by pad (a newline and the value's indentation).

    With indent, json encodes in pure Python, value by value. This writes
    dict, list, tuple, str, int, float, bool and None as json does, and a
    list of finite floats (the per-cell widths of an enclose grid, up to
    2^20 of them) in one join of float.__repr__, which json uses for a
    finite float. Any other value, or a dict with a key that is not a str,
    is written by json.dumps."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        try:
            body = ("," + inner).join(map(float.__repr__, value))
        except TypeError:
            body = "n"
        # the repr of a finite float has no "n", that of inf and nan has one
        if "n" in body:
            body = ("," + inner).join([_render_json(item, inner) for item in value])
        return f"[{inner}{body}{pad}]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = pad + "  "
        body = ("," + inner).join([f"{encode_basestring_ascii(key)}: {_render_json(item, inner)}"
                                   for key, item in value.items()])
        return f"{{{inner}{body}{pad}}}"
    return json.dumps(value, indent=2).replace("\n", pad)


def run(inv: CliInvocation, stdout=None) -> int:
    """Execute one invocation, write its report, return the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    started = time.perf_counter()
    try:
        # the package's guards and finite checks report every numerical
        # failure; numpy's warnings would only repeat them
        with np.errstate(all="ignore"):
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
    except ArithmeticError as exc:
        # Python's own text names no input, so name the rectangle
        rect = inv.options.get("rect")
        where = "" if rect is None else " on --rect " + " ".join(map(str, rect))
        print(f"numerical failure: {exc}{where}", file=sys.stderr)
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
    if inv.output_mode == "json" or inv.options.get("out"):
        rendered = _render_json(doc) + "\n"
        if inv.options.get("out"):
            try:
                with open(inv.options["out"], "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as exc:
                raise UsageError(f"--out: cannot write {inv.options['out']}: "
                                 f"{exc.strerror or exc}")
        if inv.output_mode == "json":
            stream.write(rendered)
            return code
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
    try:
        code = run_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at the null device, so
        # that the interpreter's last flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
