"""The inequality catalogue.

Five Ostrowski-type bounds, each returning (lhs, rhs, satisfied, slack) so
the verification harness can quantify violations instead of just flagging
them. In CLI vocabulary the rules are t1..t5:

    t1  ostrowski_1d            |f(x) - avg| <= [1/4 + u^2/L^2] L M
    t2  cheng_1d                trapezoid-corrected deviation vs (upper-lower)
    t3  sarikaya_functional     midpoint-kernel two-variable rule
    t4  qiaoling_functional     lambda-weighted two-variable rule
    t5  quarter_rule_functional quarter-offset-kernel two-variable rule

t5 is a fidelity implementation: it reproduces its catalogued stated form
term by term, even though the constant-function audit in the identity
module shows that form inconsistent (lhs 3/16 on the unit square with a
constant integrand and zero derivative spread). That failure is an
asserted outcome, not a bug; enclosures are built on the oracle-validated
derived expansion instead.

A variant transcription of t3 halves its double-integral term, which also
breaks constant annihilation; this implementation carries the
self-consistent coefficient 1/((b-a)(d-c)), under which the rule holds
with zero observed violations.

Every two-variable rule at an anchor (x, y) is arithmetic over the same
samples of f: the 3 x 3 point values on {x, a, b} x {y, c, d}, six line
integrals and the double integral split at the anchor. `anchor_terms`
takes them at one anchor (`AnchorTerms`); the `*_from_terms` functions
apply each rule's hand-written sum to them, and each `*_functional`
function is anchor_terms followed by its rule. The 1D rules t1 and t2
likewise read one integral and their point values (`interval_terms`,
`IntervalTerms`). Every result keeps the bits of evaluating the rule's
terms one by one.

The `*_from_terms` functions are also the audit's array path: given terms,
rectangles, points and bounds whose fields hold numpy arrays with one
entry per case (built with `core.unchecked`), each returns a RuleOutcome
of arrays whose entries equal, bit for bit, the outcome of each case on
its own. Every operation of the formulas is elementwise IEEE arithmetic
except squaring, which goes through `core.square` so that an array entry
is squared by the same libm pow as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BivariateFunction,
    DerivativeBound1D,
    DerivativeBounds,
    EngineError,
    EvalPoint,
    Interval1D,
    InvalidBounds,
    PointOutsideDomain,
    QuadConfig,
    Rectangle,
    UnivariateFunction,
    square,
)
from .quadrature import _axis_lines, grid_values, integrate_1d, integrate_2d

__all__ = [
    "PointOutsideLambdaBox",
    "RuleOutcome",
    "Lambda",
    "IntervalTerms",
    "AnchorTerms",
    "default_slack",
    "in_lambda_box",
    "interval_terms",
    "anchor_terms",
    "ostrowski_from_terms",
    "cheng_from_terms",
    "ostrowski_1d",
    "cheng_1d",
    "sarikaya_from_terms",
    "sarikaya_functional",
    "qiaoling_from_terms",
    "qiaoling_functional",
    "quarter_rule_anchor_weight",
    "quarter_rule_from_terms",
    "quarter_rule_functional",
]


class PointOutsideLambdaBox(EngineError):
    """Anchor outside the shrunken box required by the lambda rule."""


@dataclass(frozen=True)
class RuleOutcome:
    """One evaluated inequality: absolute-value lhs against its bound."""

    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    @property
    def gap(self) -> float:
        """lhs - rhs; positive means the bound was exceeded."""
        return self.lhs - self.rhs


@dataclass(frozen=True)
class Lambda:
    """Convex weight between the anchor rule (0) and the endpoint rule (1)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            raise InvalidBounds(f"lambda must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


def default_slack(rhs: float) -> float:
    """Absorbs quadrature noise when classifying lhs <= rhs."""
    return 1e-9 * (1.0 + abs(rhs))


def _outcome(lhs: float, rhs: float, slack: Optional[float]) -> RuleOutcome:
    s = default_slack(rhs) if slack is None else float(slack)
    return RuleOutcome(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + s, slack=s)


def _require_inside(iv: Interval1D, x: float) -> float:
    x = float(x)
    if not iv.contains(x):
        raise PointOutsideDomain(f"x={x} outside [{iv.lo}, {iv.hi}]")
    return x


@dataclass(frozen=True)
class IntervalTerms:
    """The samples of g that t1 and t2 at a point x of iv are built from:
    g at x, iv.lo and iv.hi and the integral of g over iv. at_lo and at_hi
    are None when only t1 is wanted, which needs neither."""

    iv: Interval1D
    x: float
    at_x: float
    at_lo: Optional[float]
    at_hi: Optional[float]
    integral: float


def interval_terms(
    g: UnivariateFunction, iv: Interval1D, x: float, q: QuadConfig, ends: bool = True
) -> IntervalTerms:
    """IntervalTerms of g at x; the endpoint values only if `ends`."""
    x = _require_inside(iv, x)
    return IntervalTerms(
        iv=iv,
        x=x,
        at_x=g.eval(x),
        at_lo=g.eval(iv.lo) if ends else None,
        at_hi=g.eval(iv.hi) if ends else None,
        integral=integrate_1d(g, iv, q),
    )


def ostrowski_from_terms(
    terms: IntervalTerms, m: DerivativeBound1D, slack: Optional[float] = None
) -> RuleOutcome:
    """t1 at terms.x."""
    if m.kind != "abs":
        raise InvalidBounds("ostrowski_1d needs an abs-kind derivative bound")
    iv, x = terms.iv, terms.x
    length = iv.length
    avg = terms.integral / length
    lhs = abs(terms.at_x - avg)
    u = x - iv.midpoint
    rhs = (0.25 + u * u / (length * length)) * length * m.magnitude
    return _outcome(lhs, rhs, slack)


def cheng_from_terms(
    terms: IntervalTerms, b1: DerivativeBound1D, slack: Optional[float] = None
) -> RuleOutcome:
    """t2 at terms.x; needs the endpoint values."""
    if b1.kind != "range":
        raise InvalidBounds("cheng_1d needs a range-kind derivative bound")
    iv, x = terms.iv, terms.x
    a, b = iv.lo, iv.hi
    length = iv.length
    avg = terms.integral / length
    lhs = abs(
        0.5 * terms.at_x
        - ((x - b) * terms.at_hi - (x - a) * terms.at_lo) / (2.0 * length)
        - avg
    )
    rhs = (square(x - a) + square(b - x)) / (8.0 * length) * (b1.upper - b1.lower)
    return _outcome(lhs, rhs, slack)


def ostrowski_1d(
    f: UnivariateFunction,
    iv: Interval1D,
    x: float,
    m: DerivativeBound1D,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> RuleOutcome:
    """Deviation of a point value from the interval average, |f'| <= M."""
    return ostrowski_from_terms(interval_terms(f, iv, x, q, ends=False), m, slack)


def cheng_1d(
    f: UnivariateFunction,
    iv: Interval1D,
    x: float,
    b1: DerivativeBound1D,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> RuleOutcome:
    """Trapezoid-corrected deviation bounded by the derivative spread."""
    return cheng_from_terms(interval_terms(f, iv, x, q), b1, slack)


def _axes(r: Rectangle) -> tuple[float, float, float, float]:
    return r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi


Values3x3 = tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class AnchorTerms:
    """The samples of f that every two-variable rule at one anchor (x, y)
    of r = [a, b] x [c, d] is built from.

    values[i][j] is f at ((x, a, b)[i], (y, c, d)[j]); along_t[j] is the
    integral over t of f(t, (y, c, d)[j]); along_s[i] is the integral over s
    of f((x, a, b)[i], s); double is the double integral over r, split at
    the anchor lines. Each equals, bit for bit, the scalar evaluation,
    integrate_1d or integrate_2d call that it replaces.
    """

    rect: Rectangle
    point: EvalPoint
    values: Values3x3
    along_t: tuple[float, float, float]
    along_s: tuple[float, float, float]
    double: float


def anchor_terms(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    q: QuadConfig,
    double: Optional[float] = None,
) -> AnchorTerms:
    """AnchorTerms of the anchor pt: one grid of point values, the lines
    s = y, c, d and t = x, a, b, and the double integral split at pt,
    unless double gives it (identity reduces it from the grid it samples
    anyway)."""
    a, b, c, d = _axes(r)
    values = grid_values(f, np.array([pt.x, a, b]), np.array([pt.y, c, d])).tolist()
    return AnchorTerms(
        rect=r,
        point=pt,
        values=tuple(map(tuple, values)),
        along_t=tuple(_axis_lines(f, "s", [pt.y, c, d], r.t_axis, q)[:, 0].tolist()),
        along_s=tuple(_axis_lines(f, "t", [pt.x, a, b], r.s_axis, q)[:, 0].tolist()),
        double=integrate_2d(f, r, q, split=pt) if double is None else double,
    )


def _t3_boundary(r: Rectangle, pt: EvalPoint, v: Values3x3) -> float:
    """Boundary-value combination H of t3 from the 3x3 values: one corner
    block over the area plus one edge block per axis."""
    a, b, c, d = _axes(r)
    x, y = pt.x, pt.y
    (_, f_xc, f_xd), (f_ay, f_ac, f_ad), (f_by, f_bc, f_bd) = v
    corner = (
        (x - a) * ((y - c) * f_ac + (d - y) * f_ad)
        + (b - x) * ((y - c) * f_bc + (d - y) * f_bd)
    ) / r.area
    edge_t = ((x - a) * f_ay + (b - x) * f_by) / r.t_axis.length
    edge_s = ((y - c) * f_xc + (d - y) * f_xd) / r.s_axis.length
    return corner + edge_t + edge_s


def sarikaya_from_terms(
    terms: AnchorTerms, db: DerivativeBounds, slack: Optional[float] = None
) -> RuleOutcome:
    """t3 at terms.point."""
    r, pt = terms.rect, terms.point
    a, b, c, d = _axes(r)
    x, y = pt.x, pt.y
    area = r.area
    int_ty, int_tc, int_td = terms.along_t
    int_xs, int_as, int_bs = terms.along_s
    lhs = abs(
        0.25 * terms.values[0][0]
        + 0.25 * _t3_boundary(r, pt, terms.values)
        - int_ty / (2.0 * r.t_axis.length)
        - int_xs / (2.0 * r.s_axis.length)
        - ((y - c) * int_tc + (d - y) * int_td) / (2.0 * area)
        - ((x - a) * int_as + (b - x) * int_bs) / (2.0 * area)
        + terms.double / area
    )
    rhs = (
        (square(x - a) + square(b - x))
        * (square(y - c) + square(d - y))
        / (32.0 * area)
        * (db.upper - db.lower)
    )
    return _outcome(lhs, rhs, slack)


def sarikaya_functional(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    db: DerivativeBounds,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> RuleOutcome:
    return sarikaya_from_terms(anchor_terms(f, r, pt, q), db, slack)


def _lambda_box(iv: Interval1D, lam: float) -> tuple[float, float]:
    shrink = 0.5 * lam * iv.length
    return iv.lo + shrink, iv.hi - shrink


def in_lambda_box(r: Rectangle, pt: EvalPoint, lv: float):
    """Whether pt lies in t4's shrunken box, up to 1e-12 of each side;
    one bool per entry where r and pt hold columns."""
    x, y = pt.x, pt.y
    tol_t = 1e-12 * r.t_axis.length
    tol_s = 1e-12 * r.s_axis.length
    x_lo, x_hi = _lambda_box(r.t_axis, lv)
    y_lo, y_hi = _lambda_box(r.s_axis, lv)
    return ((x_lo - tol_t <= x) & (x <= x_hi + tol_t)
            & (y_lo - tol_s <= y) & (y <= y_hi + tol_s))


def _require_lambda_box(r: Rectangle, pt: EvalPoint, lv: float) -> None:
    if not np.all(in_lambda_box(r, pt, lv)):
        x_lo, x_hi = _lambda_box(r.t_axis, lv)
        y_lo, y_hi = _lambda_box(r.s_axis, lv)
        raise PointOutsideLambdaBox(
            f"point ({pt.x}, {pt.y}) outside [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}] "
            f"for lambda={lv}"
        )


def qiaoling_from_terms(
    terms: AnchorTerms, db: DerivativeBounds, lam: Lambda, slack: Optional[float] = None
) -> RuleOutcome:
    """t4 at terms.point, which must lie in the shrunken box."""
    r, pt = terms.rect, terms.point
    lv = lam.value
    _require_lambda_box(r, pt, lv)
    w0 = 1.0 - lv
    half = 0.5 * lv
    (f_xy, f_xc, f_xd), (f_ay, f_ac, f_ad), (f_by, f_bc, f_bd) = terms.values
    int_ty, int_tc, int_td = terms.along_t
    int_xs, int_as, int_bs = terms.along_s
    u = pt.x - r.t_axis.midpoint
    v = pt.y - r.s_axis.midpoint
    lhs = abs(
        w0 * w0 * f_xy
        + half * w0 * (f_ay + f_by + f_xc + f_xd)
        + half * half * (f_ac + f_bc + f_ad + f_bd)
        - (w0 * int_ty + half * (int_tc + int_td)) / r.t_axis.length
        - (w0 * int_xs + half * (int_as + int_bs)) / r.s_axis.length
        - db.midpoint * w0 * w0 * u * v
        + terms.double / r.area
    )
    shape = lv * lv + w0 * w0
    rhs = (
        db.halfwidth
        / r.area
        * (shape * square(r.t_axis.length) / 4.0 + u * u)
        * (shape * square(r.s_axis.length) / 4.0 + v * v)
    )
    return _outcome(lhs, rhs, slack)


def qiaoling_functional(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    db: DerivativeBounds,
    lam: Lambda,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> RuleOutcome:
    """Lambda-weighted rule; the anchor must lie in the shrunken box."""
    _require_lambda_box(r, pt, lam.value)
    return qiaoling_from_terms(anchor_terms(f, r, pt, q), db, lam, slack)


def quarter_rule_anchor_weight(r: Rectangle, pt: EvalPoint) -> float:
    """Weight K multiplying f(x, y) in the quarter-kernel rule."""
    a, b, c, d = _axes(r)
    x, y = pt.x, pt.y
    return (3.0 * (x - a) - (b - x)) * (3.0 * (y - c) - (d - y)) / r.area


def _t5_boundary(r: Rectangle, pt: EvalPoint, v: Values3x3) -> float:
    """Boundary-value combination H of t5 from the 3x3 values: the four
    stated blocks summed, divided by the area."""
    a, b, c, d = _axes(r)
    x, y = pt.x, pt.y
    (_, f_xc, f_xd), (f_ay, f_ac, f_ad), (f_by, f_bc, f_bd) = v
    ky = 3.0 * (y - c) - (d - y)
    kx = 3.0 * (x - a) - (b - x)
    blocks = (
        (3.0 * (b - x) * f_by - (x - a) * f_ay) * ky
        + (3.0 * (d - y) * f_xd - (y - c) * f_xc) * kx
        + ((y - c) * f_ac - 3.0 * (d - y) * f_ad) * (x - a)
        + (3.0 * (d - y) * f_bd - (y - c) * f_bc) * (b - x)
    )
    return blocks / r.area


def quarter_rule_from_terms(
    terms: AnchorTerms, db: DerivativeBounds, slack: Optional[float] = None
) -> RuleOutcome:
    """t5 at terms.point, as catalogued (see quarter_rule_functional)."""
    r, pt = terms.rect, terms.point
    a, b, c, d = _axes(r)
    x, y = pt.x, pt.y
    area = r.area
    int_ty, int_tc, int_td = terms.along_t
    int_xs, int_as, int_bs = terms.along_s
    kx = 3.0 * (x - a) - (b - x)
    ky = 3.0 * (y - c) - (d - y)
    yc, dy, xa, bx = square(y - c), square(d - y), square(x - a), square(b - x)
    signed_factor = (yc - dy) * (xa - bx)
    lhs = abs(
        quarter_rule_anchor_weight(r, pt) * terms.values[0][0] / 16.0
        + _t5_boundary(r, pt, terms.values) / 16.0
        - kx * int_xs / (4.0 * area)
        - ky * int_ty / (4.0 * area)
        - (3.0 * (b - x) * int_bs - (x - a) * int_as) / (4.0 * area)
        - (3.0 * (d - y) * int_td - (y - c) * int_tc) / (4.0 * area)
        - signed_factor * (db.upper + db.lower) / (32.0 * area)
        + terms.double / area
    )
    rhs = (
        25.0
        * (yc + dy)
        * (xa + bx)
        / (512.0 * area)
        * (db.upper - db.lower)
    )
    return _outcome(lhs, rhs, slack)


def quarter_rule_functional(
    f: BivariateFunction,
    r: Rectangle,
    pt: EvalPoint,
    db: DerivativeBounds,
    q: QuadConfig,
    slack: Optional[float] = None,
) -> RuleOutcome:
    """The quarter-kernel rule exactly as catalogued (see module docstring).

    Expected to fail the constant-function case: with f == 1 and zero
    derivative spread on the unit square the lhs evaluates to 3/16 while
    the rhs is 0.
    """
    return quarter_rule_from_terms(anchor_terms(f, r, pt, q), db, slack)
