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
from typing import Optional, Sequence

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
    _bounds_hold_at,
    compare_bounds,
    composite_enclosure,
    single_cell_enclosure,
)
from .expr import (
    DomainError,
    XorShift64Star,
    derive_seed,
    parse_expression,
    random_polynomial,
    random_polynomial_1d,
    to_bivariate,
    to_univariate,
)
from .identity import corrected_from_terms, identity_report
from .quadrature import NonFiniteSample, estimate_bounds, sample_univariate
from .rules import (
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

# no longer called here; they stay importable from this module, where
# perfbench/tracing.py counts them
from .expr import differentiate, to_string  # noqa: F401
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
# most cells `enclose --subdivide` takes, in all (1024 x 1024) and per axis:
# per-cell arrays and the output grow with m * n, the quadrature nodes of
# the lines with m + n (one axis of 2^20 cells peaked at 6.6 GB); runs at
# 1024 x 1024, 256 x 4096 and 4096 x 256 peaked at 210-260 MB resident
_MAX_CELLS = 1 << 20
_MAX_AXIS_CELLS = 1 << 12
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
    vals = sample_univariate(deriv, np.linspace(iv.lo, iv.hi, 129))
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    pad = _BOUNDS_PAD * (hi - lo) + 1e-12
    return lo - pad, hi + pad


def _random_interval(rng: XorShift64Star) -> tuple[float, float]:
    # unit-scale domains keep the 1e-12-level slacks of the audit meaningful
    lo = rng.uniform(-1.0, 0.5)
    hi = lo + rng.uniform(0.4, 1.0 - lo)
    return lo, hi


class _RuleTally:
    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.rechecks = 0
        self.worst_gap: Optional[float] = None
        self.worst_case: Optional[dict] = None

    def record(self, case: dict, outcome: RuleOutcome) -> None:
        self.trials += 1
        gap = outcome.gap
        if self.worst_gap is None or gap > self.worst_gap:
            self.worst_gap = gap
            self.worst_case = dict(case, lhs=outcome.lhs, rhs=outcome.rhs)

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
    rules = opts["rules"]
    lam = opts["lam"]
    tallies = {rule: _RuleTally() for rule in rules}

    def apply(rule: str, case: dict, outcome: RuleOutcome) -> None:
        tally = tallies[rule]
        if not outcome.satisfied and rule in ("t3", "t4"):
            # independent recomputation from the record before a violation
            # is reported
            tally.rechecks += 1
            outcome = _eval_rule_case(rule, case, _VERIFY_CFG.refined())
        if not outcome.satisfied:
            tally.violations += 1
        tally.record(case, outcome)

    def audit_1d(g, base: dict, magnitude: float, lower: float, upper: float) -> None:
        # t1 and t2 read one integral and the same point values
        terms = interval_terms(g, Interval1D(*base["interval"]), base["x"], _VERIFY_CFG,
                               ends="t2" in tallies)
        if "t1" in tallies:
            apply("t1", dict(base, magnitude=magnitude),
                  ostrowski_from_terms(terms, DerivativeBound1D.abs_bound(magnitude)))
        if "t2" in tallies:
            apply("t2", dict(base, lower=lower, upper=upper),
                  cheng_from_terms(terms, DerivativeBound1D.from_range(lower, upper)))

    def audit_2d(f: BivariateFunction, r: Rectangle, db: DerivativeBounds, base: dict,
                 p: list, q: list) -> None:
        # t3, t5 and corrected at p, t4 at q, all from one anchor_terms call
        p_rules = [rule for rule in _RULES_2D if rule in tallies]
        points = ([p] if p_rules else []) + ([q] if "t4" in tallies else [])
        terms = anchor_terms(f, r, [make_point(r, *pt) for pt in points], _VERIFY_CFG)
        for rule in p_rules:
            apply(rule, dict(base, point=p), _RULES_2D[rule](terms[0], db))
        if "t4" in tallies:
            apply("t4", dict(base, point=q, **{"lambda": lam}),
                  qiaoling_from_terms(terms[-1], db, Lambda(lam)))

    one_variable = "t1" in tallies or "t2" in tallies
    two_variable = any(rule in tallies for rule in RULE_ORDER[2:])

    for name, text, x, magnitude, lo, hi in _FIXTURES_1D:
        if one_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "interval": [0.0, 1.0], "x": x}
            audit_1d(_univariate_from_text(text), base, magnitude, lo, hi)

    unit = make_rectangle(0.0, 1.0, 0.0, 1.0)
    for name, text, lo, hi in _FIXTURES_2D:
        if two_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "rect": [0.0, 1.0, 0.0, 1.0], "point": [0.5, 0.5],
                    "lower": lo, "upper": hi}
            audit_2d(_bivariate_from_text(text), unit, DerivativeBounds(lo, hi), base,
                     [0.5, 0.5], [0.5, 0.5])

    for k in range(opts["trials"]):
        tseed = derive_seed(opts["seed"], k)
        rng = XorShift64Star(tseed)
        poly2 = random_polynomial(rng, opts["degree"])
        t_lo, t_hi = _random_interval(rng)
        s_lo, s_hi = _random_interval(rng)
        px = rng.uniform(t_lo, t_hi)
        py = rng.uniform(s_lo, s_hi)
        bx_lo = t_lo + 0.5 * lam * (t_hi - t_lo)
        bx_hi = t_hi - 0.5 * lam * (t_hi - t_lo)
        by_lo = s_lo + 0.5 * lam * (s_hi - s_lo)
        by_hi = s_hi - 0.5 * lam * (s_hi - s_lo)
        qx = rng.uniform(bx_lo, bx_hi)
        qy = rng.uniform(by_lo, by_hi)
        poly1 = random_polynomial_1d(rng, opts["degree"])
        i_lo, i_hi = _random_interval(rng)
        x1 = rng.uniform(i_lo, i_hi)

        # the records carry each polynomial's text; the audit evaluates the
        # generated trees, which give the same values as the parsed text
        if one_variable:
            g = to_univariate(poly1)
            d_lo, d_hi = _sampled_deriv_range(g, Interval1D(i_lo, i_hi))
            base1 = {"source": f"trial:{k}", "seed": tseed,
                     "expr": g.label, "interval": [i_lo, i_hi], "x": x1}
            audit_1d(g, base1, max(abs(d_lo), abs(d_hi)), d_lo, d_hi)

        if two_variable:
            f2 = to_bivariate(poly2)
            rect = make_rectangle(t_lo, t_hi, s_lo, s_hi)
            db = estimate_bounds(f2, rect, grid_n=_BOUNDS_GRID, pad_rel=_BOUNDS_PAD)
            base2 = {"source": f"trial:{k}", "seed": tseed,
                     "expr": f2.label, "rect": [t_lo, t_hi, s_lo, s_hi],
                     "lower": db.lower, "upper": db.upper}
            audit_2d(f2, rect, db, base2, [px, py], [qx, qy])

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
    rendered = json.dumps(doc, indent=2) + "\n"
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
