"""Value types shared by every other module.

Domains, anchor points, derivative bounds, function capabilities, interval
enclosures and quadrature configuration. Everything is a frozen dataclass
validated at construction; all operations on these values are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EngineError",
    "DegenerateDomain",
    "PointOutsideDomain",
    "InvalidBounds",
    "InvalidConfig",
    "MissingMixedPartial",
    "Interval1D",
    "Rectangle",
    "EvalPoint",
    "DerivativeBounds",
    "DerivativeBound1D",
    "BivariateFunction",
    "UnivariateFunction",
    "Enclosure",
    "QuadConfig",
    "make_rectangle",
    "make_point",
    "derivative_bounds",
    "square",
    "unchecked",
]


def square(v):
    """v ** 2 through Python's float power (libm pow), for a float or for
    each entry of an array. numpy's square (v * v) differs from pow in the
    last bit for some v, so formulas that take either kind square this
    way to give an array entry the bits of the float."""
    if isinstance(v, np.ndarray):
        return np.array([entry ** 2 for entry in v.tolist()])
    return v ** 2


def unchecked(cls, **fields):
    """An instance of the frozen dataclass cls with the given fields, made
    without its __post_init__ checks: for a column of values (arrays with
    one entry per case) that the caller has checked entry by entry. The
    properties and formulas over such an instance give, entry by entry,
    the bits they give on one checked instance."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DegenerateDomain(EngineError):
    """Interval or rectangle with zero or negative measure."""


class PointOutsideDomain(EngineError):
    """An anchor point falls outside the domain it was built against."""


class InvalidBounds(EngineError):
    """Derivative bounds with lower > upper, or a negative magnitude."""


class InvalidConfig(EngineError):
    """Quadrature configuration outside its documented range."""


class MissingMixedPartial(EngineError):
    """An exact mixed partial was required but the function has none."""


def _finite(name: str, value: float) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise DegenerateDomain(f"{name} must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class Interval1D:
    """Closed interval [lo, hi] with strictly positive length."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _finite("interval endpoint", self.lo))
        object.__setattr__(self, "hi", _finite("interval endpoint", self.hi))
        if not self.lo < self.hi:
            raise DegenerateDomain(
                f"interval needs lo < hi, got [{self.lo}, {self.hi}]"
            )

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float, slop: float = 0.0) -> bool:
        return self.lo - slop <= value <= self.hi + slop


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle: t runs over `t_axis`, s over `s_axis`."""

    t_axis: Interval1D
    s_axis: Interval1D

    @property
    def area(self) -> float:
        return self.t_axis.length * self.s_axis.length

    @property
    def center(self) -> "EvalPoint":
        return EvalPoint(self.t_axis.midpoint, self.s_axis.midpoint)


@dataclass(frozen=True)
class EvalPoint:
    """Anchor point (x, y); validate against a Rectangle via make_point."""

    x: float
    y: float


def make_rectangle(a: float, b: float, c: float, d: float) -> Rectangle:
    """Build [a,b] x [c,d], rejecting zero-measure axes.

    Degenerate axes are rejected outright rather than mapped to a zero
    integral: every downstream formula divides by (b-a)(d-c).
    """
    return Rectangle(Interval1D(a, b), Interval1D(c, d))


def make_point(r: Rectangle, x: float, y: float) -> EvalPoint:
    """Validate (x, y) against r. Boundary points are allowed."""
    x = float(x)
    y = float(y)
    if not (r.t_axis.contains(x) and r.s_axis.contains(y)):
        raise PointOutsideDomain(
            f"point ({x}, {y}) outside [{r.t_axis.lo}, {r.t_axis.hi}] x "
            f"[{r.s_axis.lo}, {r.s_axis.hi}]"
        )
    return EvalPoint(x, y)


@dataclass(frozen=True)
class DerivativeBounds:
    """Two-sided bound lower <= d2f/dtds <= upper on a rectangle."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidBounds("derivative bounds must be finite")
        if self.lower > self.upper:
            raise InvalidBounds(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.upper + self.lower)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.upper - self.lower)


def derivative_bounds(gamma: float, Gamma: float) -> DerivativeBounds:
    """Bounds on the mixed partial; equality gamma == Gamma is admissible."""
    return DerivativeBounds(gamma, Gamma)


@dataclass(frozen=True)
class DerivativeBound1D:
    """One-dimensional derivative information for the 1D rules.

    kind "abs" carries |f'| <= M (stored as the symmetric range [-M, M]);
    kind "range" carries lower <= f' <= upper.
    """

    kind: str
    lower: float
    upper: float

    @classmethod
    def abs_bound(cls, magnitude: float) -> "DerivativeBound1D":
        m = float(magnitude)
        if not math.isfinite(m) or m < 0.0:
            raise InvalidBounds(f"magnitude bound must be >= 0, got {magnitude!r}")
        return cls("abs", -m, m)

    @classmethod
    def from_range(cls, lower: float, upper: float) -> "DerivativeBound1D":
        lo, hi = float(lower), float(upper)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise InvalidBounds(f"invalid derivative range ({lower!r}, {upper!r})")
        return cls("range", lo, hi)

    @property
    def magnitude(self) -> float:
        if self.kind != "abs":
            raise InvalidBounds("magnitude is only defined for kind 'abs'")
        return self.upper


@dataclass(frozen=True)
class BivariateFunction:
    """Evaluation capability for f(t, s), optionally with its exact mixed partial.

    `vectorized` promises that `fn` (and `mixed_fn`, when present) accept
    numpy arrays and broadcast; quadrature uses that to evaluate whole node
    grids in one call. Plain Python lambdas should leave it False.
    """

    fn: Callable
    mixed_fn: Optional[Callable] = None
    vectorized: bool = False
    label: str = "f"

    @property
    def has_exact_mixed(self) -> bool:
        return self.mixed_fn is not None

    def eval(self, t: float, s: float) -> float:
        return float(self.fn(t, s))

    def mixed(self, t: float, s: float) -> float:
        if self.mixed_fn is None:
            raise MissingMixedPartial(
                f"function {self.label!r} carries no exact mixed partial"
            )
        return float(self.mixed_fn(t, s))

    def fix_t(self, x: float) -> "UnivariateFunction":
        """Cross-section s -> f(x, s)."""
        fn = self.fn
        return UnivariateFunction(
            fn=lambda s, _x=float(x): fn(_x, s),
            vectorized=self.vectorized,
            label=f"{self.label}({x}, .)",
        )

    def fix_s(self, y: float) -> "UnivariateFunction":
        """Cross-section t -> f(t, y)."""
        fn = self.fn
        return UnivariateFunction(
            fn=lambda t, _y=float(y): fn(t, _y),
            vectorized=self.vectorized,
            label=f"{self.label}(., {y})",
        )


@dataclass(frozen=True)
class UnivariateFunction:
    """Evaluation capability for g(t), optionally with its derivative."""

    fn: Callable
    deriv_fn: Optional[Callable] = None
    vectorized: bool = False
    label: str = "g"

    @property
    def has_exact_deriv(self) -> bool:
        return self.deriv_fn is not None

    def eval(self, t: float) -> float:
        return float(self.fn(t))

    def deriv(self, t: float) -> float:
        if self.deriv_fn is None:
            raise MissingMixedPartial(
                f"function {self.label!r} carries no exact derivative"
            )
        return float(self.deriv_fn(t))


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] asserted to contain a target value."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            # NaN compares false both ways, so lo > hi alone lets it through
            raise InvalidBounds(f"enclosure endpoints must be finite, got "
                                f"[{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise InvalidBounds(f"enclosure needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, slop: float = 0.0) -> bool:
        return self.lo - slop <= value <= self.hi + slop


@dataclass(frozen=True)
class QuadConfig:
    """Gauss-Legendre configuration: points per panel, panels per segment.

    `abs_tol` is the base numerical-noise allowance folded into enclosure
    padding; it is not a target accuracy.
    """

    gl_order: int = 16
    panels: int = 8
    abs_tol: float = 1e-14

    def __post_init__(self) -> None:
        if int(self.gl_order) != self.gl_order or self.gl_order < 2:
            raise InvalidConfig(f"gl_order must be an integer >= 2, got {self.gl_order!r}")
        if int(self.panels) != self.panels or self.panels < 1:
            raise InvalidConfig(f"panels must be an integer >= 1, got {self.panels!r}")
        if not (float(self.abs_tol) > 0.0):
            raise InvalidConfig(f"abs_tol must be > 0, got {self.abs_tol!r}")
        object.__setattr__(self, "gl_order", int(self.gl_order))
        object.__setattr__(self, "panels", int(self.panels))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))

    def refined(self) -> "QuadConfig":
        """A strictly finer configuration, used for error estimation."""
        order = min(2 * self.gl_order, 64)
        panels = self.panels if order > self.gl_order else 2 * self.panels
        return QuadConfig(gl_order=order, panels=panels, abs_tol=self.abs_tol)
