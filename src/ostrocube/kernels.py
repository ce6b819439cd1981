"""Piecewise-linear comparison kernels and their moment formulas.

The kernel on [lo, hi] with anchor x is

    k(t) = t - (3*lo + x)/4   for t in [lo, x]
    k(t) = t - (3*hi + x)/4   for t in (x, hi]

Each branch has slope 1 and its root a quarter of the way into the branch,
so the kernel jumps from 3(x-lo)/4 down to -3(hi-x)/4 at the anchor. The
closed-form moments below were obtained by antidifferentiation on each
branch and are cross-checked against brute-force panel integration in the
test suite before anything else relies on them:

    integral of k        = ((x-lo)^2 - (hi-x)^2) / 4
    integral of |k|      = 5 ((x-lo)^2 + (hi-x)^2) / 16

The two-variable moments are the products of the per-axis factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EngineError, EvalPoint, Interval1D, Rectangle, square

__all__ = [
    "OutOfRange",
    "AnchorOnBoundary",
    "Kernel1D",
    "kernel_eval",
    "kernel_values",
    "kernel_jump",
    "signed_moment_1d",
    "abs_moment_1d",
    "t_kernel",
    "s_kernel",
    "signed_moment",
    "abs_moment",
]


class OutOfRange(EngineError):
    """Kernel evaluated or anchored outside its interval."""


class AnchorOnBoundary(EngineError):
    """Jump requested for a kernel anchored on an interval endpoint."""


@dataclass(frozen=True)
class Kernel1D:
    interval: Interval1D
    anchor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor", float(self.anchor))
        if not self.interval.contains(self.anchor):
            raise OutOfRange(
                f"anchor {self.anchor} outside [{self.interval.lo}, {self.interval.hi}]"
            )

    @property
    def left_offset(self) -> float:
        return (3.0 * self.interval.lo + self.anchor) / 4.0

    @property
    def right_offset(self) -> float:
        return (3.0 * self.interval.hi + self.anchor) / 4.0


def kernel_eval(k: Kernel1D, t: float) -> float:
    """Kernel value at t; the left branch applies at t == anchor.

    The branch split is closed on the left by convention (a measure-zero
    choice that no integral can see, fixed for determinism).
    """
    t = float(t)
    if not k.interval.contains(t):
        raise OutOfRange(f"t={t} outside [{k.interval.lo}, {k.interval.hi}]")
    if t <= k.anchor:
        return t - k.left_offset
    return t - k.right_offset


def kernel_values(k: Kernel1D, ts: np.ndarray) -> np.ndarray:
    """Vectorized kernel_eval without range checks (caller guarantees)."""
    ts = np.asarray(ts, dtype=float)
    return np.where(ts <= k.anchor, ts - k.left_offset, ts - k.right_offset)


def kernel_jump(k: Kernel1D) -> tuple[float, float]:
    """One-sided limits at the anchor: (3(x-lo)/4, -3(hi-x)/4)."""
    if k.anchor == k.interval.lo or k.anchor == k.interval.hi:
        raise AnchorOnBoundary(
            f"anchor {k.anchor} lies on the boundary of "
            f"[{k.interval.lo}, {k.interval.hi}]"
        )
    left = 3.0 * (k.anchor - k.interval.lo) / 4.0
    right = -3.0 * (k.interval.hi - k.anchor) / 4.0
    return left, right


def signed_moment_1d(k: Kernel1D) -> float:
    """Integral of the kernel over its interval."""
    a, b, x = k.interval.lo, k.interval.hi, k.anchor
    return ((x - a) ** 2 - (b - x) ** 2) / 4.0


def abs_moment_1d(k: Kernel1D) -> float:
    """Integral of |kernel| over its interval."""
    a, b, x = k.interval.lo, k.interval.hi, k.anchor
    return 5.0 * ((x - a) ** 2 + (b - x) ** 2) / 16.0


def t_kernel(r: Rectangle, pt: EvalPoint) -> Kernel1D:
    return Kernel1D(r.t_axis, pt.x)


def s_kernel(r: Rectangle, pt: EvalPoint) -> Kernel1D:
    return Kernel1D(r.s_axis, pt.y)


def signed_moment(r: Rectangle, pt: EvalPoint) -> float:
    """Double integral of k_t(t) * k_s(s) over the rectangle.

    Equals the product of the two 1D signed moments; antisymmetric in each
    anchor about the axis midpoint, hence zero at the center.
    """
    a, b = r.t_axis.lo, r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    return (square(y - c) - square(d - y)) * (square(x - a) - square(b - x)) / 16.0


def abs_moment(r: Rectangle, pt: EvalPoint) -> float:
    """Double integral of |k_t(t) * k_s(s)| over the rectangle."""
    a, b = r.t_axis.lo, r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    return (
        25.0
        * (square(y - c) + square(d - y))
        * (square(x - a) + square(b - x))
        / 256.0
    )
