"""Shared test machinery: independent brute-force oracles and generators,
a reference copy of the cell-by-cell enclosure loop, reference copies
of the per-rule and per-quadrant bodies, of the meshgrid and per-line grid
samplers, of the raw symbolic derivative and of the per-trial verify
loop, and a probe of the minor page faults of a repeated CLI call.

The oracles deliberately avoid the package's Gauss-Legendre machinery so
oracle agreement tests compare two genuinely different computations:
kernel moments use kink-aligned composite trapezoid sums (exact for the
piecewise-linear kernels), and the kernel-weighted integral uses composite
Simpson per quadrant. The reference enclosure is the opposite: it repeats
the package's own arithmetic one cell at a time, so the grid assembler
must match it bit for bit. The reference rules and quadrant expansions
likewise evaluate every point, line and double integral on their own, so
the shared anchor terms and quadrant samples must match them bit for bit,
the reference derivative builds the unsimplified tree that simplify
must turn into the one-pass derivative, and the reference verify loop
samples each trial's own trees one trial at a time, which the stacked
chunks must match byte for byte. It takes the anchor terms of a trial's
anchors p and q together, as anchor_terms did when it took several
anchors at once (`reference_anchor_terms`). The stacked programs of
`templates` are the trees whose every step the stacked recurrences
must repeat bit for bit.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from ostrocube import cli
from ostrocube.core import (
    DerivativeBound1D,
    DerivativeBounds,
    Enclosure,
    Interval1D,
    Rectangle,
    UnivariateFunction,
    make_point,
    make_rectangle,
)
from ostrocube.enclosure import EnclosureReport
from ostrocube.expr import (
    Binary,
    Const,
    ExprNode,
    Unary,
    Var,
    XorShift64Star,
    derive_seed,
    differentiate,
    draw_polynomial_1d,
    parse_expression,
    polynomial,
    polynomial_1d,
    random_polynomial,
    simplify,
    stacked_program,
    to_bivariate,
    to_univariate,
)
from ostrocube.identity import (
    IdentityReport,
    Quadrant,
    QuadrantComparison,
    expansion_weights,
    quadrant_oracle,
)
from ostrocube.kernels import abs_moment, signed_moment
from ostrocube.rules import (
    AnchorTerms,
    Lambda,
    cheng_from_terms,
    interval_terms,
    ostrowski_from_terms,
    qiaoling_from_terms,
)
from ostrocube.quadrature import (
    BLOCK_SAMPLES,
    _axis_quadrature,
    _check_finite,
    as_bivariate,
    estimate_bounds,
    gl_rule,
    grid_values,
    integrate_1d,
    integrate_2d,
    line_integrals,
    sample_bivariate,
    sample_mixed,
    sample_univariate,
)


def trapz(values: np.ndarray, xs: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(xs)))


def _kernel_segments(lo: float, hi: float, anchor: float) -> list[tuple[float, float]]:
    left_root = (3.0 * lo + anchor) / 4.0
    right_root = (3.0 * hi + anchor) / 4.0
    pts = sorted({lo, hi, anchor, left_root, right_root})
    return [(e0, e1) for e0, e1 in zip(pts, pts[1:]) if e1 > e0]


def _kernel_offset(lo: float, hi: float, anchor: float, where: float) -> float:
    if where <= anchor:
        return (3.0 * lo + anchor) / 4.0
    return (3.0 * hi + anchor) / 4.0


def brute_kernel_moment_1d(
    lo: float, hi: float, anchor: float, absolute: bool, panels: int = 2000
) -> float:
    """Composite trapezoid of the kernel (or |kernel|), split at the root
    and jump points; exact up to roundoff for the piecewise-linear kernel."""
    total = 0.0
    for e0, e1 in _kernel_segments(lo, hi, anchor):
        n = max(2, int(np.ceil(panels * (e1 - e0) / (hi - lo))))
        xs = np.linspace(e0, e1, n + 1)
        vals = xs - _kernel_offset(lo, hi, anchor, 0.5 * (e0 + e1))
        if absolute:
            vals = np.abs(vals)
        total += trapz(vals, xs)
    return total


def _kernel_axis_nodes(
    lo: float, hi: float, anchor: float, per_segment: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, trapezoid weights, kernel values) with branch-correct values
    on each kink segment (joint nodes are duplicated across the jump)."""
    nodes, weights, values = [], [], []
    for e0, e1 in _kernel_segments(lo, hi, anchor):
        xs = np.linspace(e0, e1, per_segment + 1)
        w = np.full(xs.size, (e1 - e0) / per_segment)
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(xs)
        weights.append(w)
        values.append(xs - _kernel_offset(lo, hi, anchor, 0.5 * (e0 + e1)))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(values)


def brute_kernel_moment_2d(
    a: float,
    b: float,
    c: float,
    d: float,
    x: float,
    y: float,
    absolute: bool,
    per_segment: int = 200,
) -> float:
    """Kink-aligned 2D tensor trapezoid of p*q (or |p*q|) over the rectangle."""
    _, tw, pv = _kernel_axis_nodes(a, b, x, per_segment)
    _, sw, qv = _kernel_axis_nodes(c, d, y, per_segment)
    grid = np.outer(pv, qv)
    if absolute:
        grid = np.abs(grid)
    return float(tw @ grid @ sw)


def _simpson_axis(lo: float, hi: float, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    if intervals % 2:
        intervals += 1
    xs = np.linspace(lo, hi, intervals + 1)
    h = (hi - lo) / intervals
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (h / 3.0)


def simpson_kernel_weighted(
    mixed, a: float, b: float, c: float, d: float, x: float, y: float,
    intervals: int = 400,
) -> float:
    """Composite Simpson of p*q*mixed, one grid per quadrant. `mixed` must
    accept numpy array arguments."""
    total = 0.0
    for t0, t1 in ((a, x), (x, b)):
        if t1 <= t0:
            continue
        for s0, s1 in ((c, y), (y, d)):
            if s1 <= s0:
                continue
            ts, tw = _simpson_axis(t0, t1, intervals)
            ss, sw = _simpson_axis(s0, s1, intervals)
            pv = ts - _kernel_offset(a, b, x, 0.5 * (t0 + t1))
            qv = ss - _kernel_offset(c, d, y, 0.5 * (s0 + s1))
            T, S = np.meshgrid(ts, ss, indexing="ij")
            grid = pv[:, None] * qv[None, :] * np.asarray(mixed(T, S), dtype=float)
            total += float(tw @ grid @ sw)
    return total


def simpson_2d(fn, a: float, b: float, c: float, d: float, intervals: int = 256) -> float:
    """Composite Simpson tensor product of a smooth vectorized integrand."""
    ts, tw = _simpson_axis(a, b, intervals)
    ss, sw = _simpson_axis(c, d, intervals)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    vals = np.asarray(fn(T, S), dtype=float)
    return float(tw @ vals @ sw)


# ---------------------------------------------------------------------------
# seeded geometry, matching the unit-scale corpus convention
# ---------------------------------------------------------------------------


def random_interval(rng: XorShift64Star, span: float = 1.0, min_width: float = 0.4):
    lo = rng.uniform(-span, span - 2 * min_width)
    hi = lo + rng.uniform(min_width, span - lo)
    return lo, hi


def random_rect_point(rng: XorShift64Star, span: float = 1.0, min_width: float = 0.4):
    a, b = random_interval(rng, span, min_width)
    c, d = random_interval(rng, span, min_width)
    x = rng.uniform(a, b)
    y = rng.uniform(c, d)
    return (a, b, c, d), (x, y)


# ---------------------------------------------------------------------------
# random syntax trees for parser/derivative properties
# ---------------------------------------------------------------------------


def random_ast(rnd: random.Random, depth: int) -> ExprNode:
    """Well-behaved random expression: denominators, log and sqrt arguments
    are built positive by construction, exp arguments are damped, so the
    tree is smooth on [0.2, 1.5]^2."""
    if depth <= 0 or rnd.random() < 0.25:
        return rnd.choice(
            [Var("t"), Var("s"), Const(round(rnd.uniform(0.2, 2.5), 3))]
        )
    roll = rnd.random()
    if roll < 0.45:
        op = rnd.choice(["+", "-", "*"])
        return Binary(op, random_ast(rnd, depth - 1), random_ast(rnd, depth - 1))
    if roll < 0.60:
        return Unary(rnd.choice(["sin", "cos", "neg"]), random_ast(rnd, depth - 1))
    if roll < 0.70:
        leaf = rnd.choice([Var("t"), Var("s")])
        return Unary("exp", Binary("*", Const(0.3), leaf))
    if roll < 0.80:
        u = random_ast(rnd, depth - 2)
        den = Binary("+", Const(round(rnd.uniform(1.5, 3.0), 3)), Binary("*", u, u))
        return Binary("/", random_ast(rnd, depth - 1), den)
    if roll < 0.90:
        return Binary("^", random_ast(rnd, depth - 1), Const(float(rnd.randint(2, 3))))
    u = random_ast(rnd, depth - 2)
    arg = Binary("+", Const(round(rnd.uniform(0.5, 1.5), 3)), Binary("*", u, u))
    return Unary(rnd.choice(["log", "sqrt"]), arg)


# ---------------------------------------------------------------------------
# reference enclosure: the cell-by-cell loop the grid assembler replaced
# ---------------------------------------------------------------------------
#
# A copy of the earlier per-cell implementation of single_cell_enclosure and
# composite_enclosure, with its own node loop and bound sampling, kept as
# the oracle for the byte-identity tests of the grid assembler. It does not
# check given bounds against the mixed partial, so it always reports given
# bounds as rigorous.


def _reference_axis_quadrature(lo: float, hi: float, q):
    rule = gl_rule(q.gl_order)
    step = (hi - lo) / q.panels
    nodes, weights = [], []
    for p in range(q.panels):
        left = lo + p * step
        half = 0.5 * step
        mid = left + half
        nodes.append(mid + half * rule.nodes)
        weights.append(half * rule.weights)
    return np.concatenate(nodes), np.concatenate(weights)


def reference_integrate_1d(g, iv, q) -> float:
    nodes, weights = _reference_axis_quadrature(iv.lo, iv.hi, q)
    vals = sample_univariate(g, nodes)
    _check_finite(vals, g.label)
    return float(weights @ vals)


def reference_estimate_bounds(f, r, grid_n: int, pad_rel: float) -> DerivativeBounds:
    ts = np.linspace(r.t_axis.lo, r.t_axis.hi, grid_n)
    ss = np.linspace(r.s_axis.lo, r.s_axis.hi, grid_n)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    vals = sample_mixed(f, T, S)
    _check_finite(vals, f"mixed partial of {f.label}")
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    pad = pad_rel * (hi - lo) + 1e-12
    return DerivativeBounds(lo - pad, hi + pad)


_REF_EPS = 2.220446049250313e-16


def _reference_cell_center_and_pad(f, r, pt, db, q):
    t_nodes, t_weights = expansion_weights(r.t_axis, pt.x)
    s_nodes, s_weights = expansion_weights(r.s_axis, pt.y)
    refined = q.refined()

    points = 0.0
    abs_mass = 0.0
    for tn, wt in zip(t_nodes, t_weights):
        for sn, ws in zip(s_nodes, s_weights):
            term = wt * ws * f.eval(tn, sn)
            points += term
            abs_mass += abs(term)

    lines = 0.0
    truncation = 0.0
    for tn, wt in zip(t_nodes, t_weights):
        base = reference_integrate_1d(f.fix_t(tn), r.s_axis, q)
        fine = reference_integrate_1d(f.fix_t(tn), r.s_axis, refined)
        lines += wt * base
        truncation += wt * abs(base - fine)
        abs_mass += abs(wt * base)
    for sn, ws in zip(s_nodes, s_weights):
        base = reference_integrate_1d(f.fix_s(sn), r.t_axis, q)
        fine = reference_integrate_1d(f.fix_s(sn), r.t_axis, refined)
        lines += ws * base
        truncation += ws * abs(base - fine)
        abs_mass += abs(ws * base)

    ms = db.midpoint * signed_moment(r, pt)
    abs_mass += abs(ms)
    center = ms - points + lines
    pad = truncation + 48.0 * _REF_EPS * abs_mass
    return center, pad


def reference_single_cell(f, r, pt, db, q, bounds_estimated: bool = False) -> EnclosureReport:
    center, pad = _reference_cell_center_and_pad(f, r, pt, db, q)
    pad += q.abs_tol
    radius = db.halfwidth * abs_moment(r, pt) + pad
    return EnclosureReport(
        enclosure=Enclosure(center - radius, center + radius),
        point_used=pt,
        bounds_used=db,
        rigorous=not bounds_estimated,
        cells=1,
        per_cell_width=None,
        quadrature_padding=pad,
    )


def reference_composite(
    f, r, bounds, m: int, n: int, q, estimate_grid_n: int = 17, estimate_pad_rel: float = 0.1
) -> EnclosureReport:
    a, c = r.t_axis.lo, r.s_axis.lo
    wx = r.t_axis.length / m
    wy = r.s_axis.length / n
    total_center = 0.0
    total_radius = 0.0
    total_pad = 0.0
    widths = []
    hull_lo = float("inf")
    hull_hi = float("-inf")
    for i in range(m):
        for j in range(n):
            cell = Rectangle(
                Interval1D(a + i * wx, a + (i + 1) * wx),
                Interval1D(c + j * wy, c + (j + 1) * wy),
            )
            mid = cell.center
            db = bounds if bounds is not None else reference_estimate_bounds(
                f, cell, estimate_grid_n, estimate_pad_rel
            )
            hull_lo = min(hull_lo, db.lower)
            hull_hi = max(hull_hi, db.upper)
            center, pad = _reference_cell_center_and_pad(f, cell, mid, db, q)
            radius = db.halfwidth * abs_moment(cell, mid) + pad
            total_center += center
            total_radius += radius
            total_pad += pad
            widths.append(2.0 * radius)
    total_radius += q.abs_tol
    total_pad += q.abs_tol
    return EnclosureReport(
        enclosure=Enclosure(total_center - total_radius, total_center + total_radius),
        point_used=r.center,
        bounds_used=DerivativeBounds(hull_lo, hull_hi),
        rigorous=bounds is not None,
        cells=m * n,
        per_cell_width=tuple(widths),
        quadrature_padding=total_pad,
    )


# ---------------------------------------------------------------------------
# reference rules: each rule evaluating its own points, lines and integral
# ---------------------------------------------------------------------------
#
# Copies of the rule bodies that the shared anchor terms replaced. Each
# returns (lhs, rhs) for the rules, or the un-normalized value for the
# expansions, and must agree to the last bit with the package.


def _ref_lines(f, r, x, y, q):
    """(int_ty, int_xs, int_tc, int_td, int_as, int_bs, dbl) at anchor (x, y)."""
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    return (
        integrate_1d(f.fix_s(y), r.t_axis, q),
        integrate_1d(f.fix_t(x), r.s_axis, q),
        integrate_1d(f.fix_s(c), r.t_axis, q),
        integrate_1d(f.fix_s(d), r.t_axis, q),
        integrate_1d(f.fix_t(a), r.s_axis, q),
        integrate_1d(f.fix_t(b), r.s_axis, q),
    )


def reference_sarikaya(f, r, pt, db, q):
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    area = r.area
    int_ty, int_xs, int_tc, int_td, int_as, int_bs = _ref_lines(f, r, x, y, q)
    dbl = integrate_2d(f, r, q, split=pt)
    corner = (
        (x - a) * ((y - c) * f.eval(a, c) + (d - y) * f.eval(a, d))
        + (b - x) * ((y - c) * f.eval(b, c) + (d - y) * f.eval(b, d))
    ) / r.area
    edge_t = ((x - a) * f.eval(a, y) + (b - x) * f.eval(b, y)) / r.t_axis.length
    edge_s = ((y - c) * f.eval(x, c) + (d - y) * f.eval(x, d)) / r.s_axis.length
    h = corner + edge_t + edge_s
    lhs = abs(
        0.25 * f.eval(x, y)
        + 0.25 * h
        - int_ty / (2.0 * r.t_axis.length)
        - int_xs / (2.0 * r.s_axis.length)
        - ((y - c) * int_tc + (d - y) * int_td) / (2.0 * area)
        - ((x - a) * int_as + (b - x) * int_bs) / (2.0 * area)
        + dbl / area
    )
    rhs = (
        ((x - a) ** 2 + (b - x) ** 2)
        * ((y - c) ** 2 + (d - y) ** 2)
        / (32.0 * area)
        * (db.upper - db.lower)
    )
    return lhs, rhs


def reference_qiaoling(f, r, pt, db, lv, q):
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    w0 = 1.0 - lv
    half = 0.5 * lv
    int_ty, int_xs, int_tc, int_td, int_as, int_bs = _ref_lines(f, r, x, y, q)
    dbl = integrate_2d(f, r, q, split=pt)
    u = x - r.t_axis.midpoint
    v = y - r.s_axis.midpoint
    lhs = abs(
        w0 * w0 * f.eval(x, y)
        + half * w0 * (f.eval(a, y) + f.eval(b, y) + f.eval(x, c) + f.eval(x, d))
        + half * half * (f.eval(a, c) + f.eval(b, c) + f.eval(a, d) + f.eval(b, d))
        - (w0 * int_ty + half * (int_tc + int_td)) / r.t_axis.length
        - (w0 * int_xs + half * (int_as + int_bs)) / r.s_axis.length
        - db.midpoint * w0 * w0 * u * v
        + dbl / r.area
    )
    shape = lv * lv + w0 * w0
    rhs = (
        db.halfwidth
        / r.area
        * (shape * r.t_axis.length ** 2 / 4.0 + u * u)
        * (shape * r.s_axis.length ** 2 / 4.0 + v * v)
    )
    return lhs, rhs


def reference_quarter_rule(f, r, pt, db, q):
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    area = r.area
    int_ty, int_xs, int_tc, int_td, int_as, int_bs = _ref_lines(f, r, x, y, q)
    dbl = integrate_2d(f, r, q, split=pt)
    kx = 3.0 * (x - a) - (b - x)
    ky = 3.0 * (y - c) - (d - y)
    weight = kx * ky / r.area
    blocks = (
        (3.0 * (b - x) * f.eval(b, y) - (x - a) * f.eval(a, y)) * ky
        + (3.0 * (d - y) * f.eval(x, d) - (y - c) * f.eval(x, c)) * kx
        + ((y - c) * f.eval(a, c) - 3.0 * (d - y) * f.eval(a, d)) * (x - a)
        + (3.0 * (d - y) * f.eval(b, d) - (y - c) * f.eval(b, c)) * (b - x)
    )
    signed_factor = ((y - c) ** 2 - (d - y) ** 2) * ((x - a) ** 2 - (b - x) ** 2)
    lhs = abs(
        weight * f.eval(x, y) / 16.0
        + blocks / r.area / 16.0
        - kx * int_xs / (4.0 * area)
        - ky * int_ty / (4.0 * area)
        - (3.0 * (b - x) * int_bs - (x - a) * int_as) / (4.0 * area)
        - (3.0 * (d - y) * int_td - (y - c) * int_tc) / (4.0 * area)
        - signed_factor * (db.upper + db.lower) / (32.0 * area)
        + dbl / area
    )
    rhs = (
        25.0
        * ((y - c) ** 2 + (d - y) ** 2)
        * ((x - a) ** 2 + (b - x) ** 2)
        / (512.0 * area)
        * (db.upper - db.lower)
    )
    return lhs, rhs


def reference_full_expansion_derived(f, r, pt, q):
    t_nodes, t_weights = expansion_weights(r.t_axis, pt.x)
    s_nodes, s_weights = expansion_weights(r.s_axis, pt.y)
    points = sum(
        wt * ws * f.eval(tn, sn)
        for tn, wt in zip(t_nodes, t_weights)
        for sn, ws in zip(s_nodes, s_weights)
    )
    lines_t = sum(
        wt * integrate_1d(f.fix_t(tn), r.s_axis, q)
        for tn, wt in zip(t_nodes, t_weights)
    )
    lines_s = sum(
        ws * integrate_1d(f.fix_s(sn), r.t_axis, q)
        for sn, ws in zip(s_nodes, s_weights)
    )
    dbl = integrate_2d(f, r, q, split=pt)
    return points - lines_t - lines_s + dbl


def reference_full_expansion_verbatim(f, r, pt, q):
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    kx = 3.0 * (x - a) - (b - x)
    ky = 3.0 * (y - c) - (d - y)
    brace = (
        kx * ky * f.eval(x, y)
        + (3.0 * (b - x) * f.eval(b, y) - (x - a) * f.eval(a, y)) * ky
        + (3.0 * (d - y) * f.eval(x, d) - (y - c) * f.eval(x, c)) * kx
        + ((y - c) * f.eval(a, c) - 3.0 * (d - y) * f.eval(a, d)) * (x - a)
        + (3.0 * (d - y) * f.eval(b, d) - (y - c) * f.eval(b, c)) * (b - x)
    )
    int_ty, int_xs, int_tc, int_td, int_as, int_bs = _ref_lines(f, r, x, y, q)
    dbl = integrate_2d(f, r, q, split=pt)
    lines = (
        kx * int_xs
        + ky * int_ty
        + 3.0 * (b - x) * int_bs
        - (x - a) * int_as
        + 3.0 * (d - y) * int_td
        - (y - c) * int_tc
    )
    return brace / 16.0 - lines / 4.0 + dbl


def reference_corrected(f, r, pt, db, q):
    """The verify harness's corrected rule: |derived - M*S| against h*A."""
    lhs = abs(reference_full_expansion_derived(f, r, pt, q) - db.midpoint * signed_moment(r, pt))
    return lhs, db.halfwidth * abs_moment(r, pt)


# ---------------------------------------------------------------------------
# reference quadrant expansions: each quadrant evaluates its own points,
# half-lines and double integral one at a time
# ---------------------------------------------------------------------------


def _ref_halves(r, pt, quad):
    """(lo, hi, anchor node, end node, is_left) of the t and s branches."""
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    t_half = (a, x, x, a, True) if quad.value[0] == "L" else (x, b, x, b, False)
    s_half = (c, y, y, c, True) if quad.value[1] == "L" else (y, d, y, d, False)
    return t_half, s_half


def _ref_line(g, lo, hi, q):
    if hi <= lo:
        return 0.0
    return integrate_1d(g, Interval1D(lo, hi), q)


def _ref_quadrant_double(f, t_half, s_half, q):
    if t_half[1] - t_half[0] <= 0.0 or s_half[1] - s_half[0] <= 0.0:
        return 0.0
    sub = Rectangle(Interval1D(t_half[0], t_half[1]), Interval1D(s_half[0], s_half[1]))
    return integrate_2d(f, sub, q)


def reference_quadrant_verbatim(f, r, pt, quad, q):
    t_half, s_half = _ref_halves(r, pt, quad)
    t_lo, t_hi, t_anchor, t_end, t_left = t_half
    s_lo, s_hi, s_anchor, s_end, s_left = s_half
    wt, ws = t_hi - t_lo, s_hi - s_lo
    ht, lt = (t_anchor, t_end) if t_left else (t_end, t_anchor)
    hs, ls = (s_anchor, s_end) if s_left else (s_end, s_anchor)
    point_block = (wt * ws / 16.0) * (
        9.0 * f.eval(ht, hs) - 3.0 * f.eval(ht, ls) - 3.0 * f.eval(lt, hs) + f.eval(lt, ls)
    )
    line_s = (wt / 4.0) * (
        3.0 * _ref_line(f.fix_t(ht), s_lo, s_hi, q) - _ref_line(f.fix_t(lt), s_lo, s_hi, q)
    )
    line_t = (ws / 4.0) * (
        3.0 * _ref_line(f.fix_s(hs), t_lo, t_hi, q) - _ref_line(f.fix_s(ls), t_lo, t_hi, q)
    )
    return point_block - line_s - line_t + _ref_quadrant_double(f, t_half, s_half, q)


def reference_quadrant_derived(f, r, pt, quad, q):
    t_half, s_half = _ref_halves(r, pt, quad)
    t_lo, t_hi, t_anchor, t_end, _ = t_half
    s_lo, s_hi, s_anchor, s_end, _ = s_half
    t_nodes = (t_anchor, t_end)
    t_weights = (0.75 * (t_hi - t_lo), 0.25 * (t_hi - t_lo))
    s_nodes = (s_anchor, s_end)
    s_weights = (0.75 * (s_hi - s_lo), 0.25 * (s_hi - s_lo))
    points = sum(
        wt * wsj * f.eval(tn, sn)
        for tn, wt in zip(t_nodes, t_weights)
        for sn, wsj in zip(s_nodes, s_weights)
    )
    lines_s = sum(
        wt * _ref_line(f.fix_t(tn), s_lo, s_hi, q) for tn, wt in zip(t_nodes, t_weights)
    )
    lines_t = sum(
        wsj * _ref_line(f.fix_s(sn), t_lo, t_hi, q) for sn, wsj in zip(s_nodes, s_weights)
    )
    return points - lines_s - lines_t + _ref_quadrant_double(f, t_half, s_half, q)


def reference_identity_report(f, r, pt, q, tol=1e-9):
    """identity_report assembled from the reference expansions; the oracle
    is the package's quadrant_oracle, which the shared samples do not touch."""
    per_quadrant = {
        quad: QuadrantComparison(
            verbatim=reference_quadrant_verbatim(f, r, pt, quad, q),
            derived=reference_quadrant_derived(f, r, pt, quad, q),
            oracle=quadrant_oracle(f, r, pt, quad, q),
        )
        for quad in Quadrant
    }
    oracle = sum(c.oracle for c in per_quadrant.values())
    verbatim = reference_full_expansion_verbatim(f, r, pt, q)
    derived = reference_full_expansion_derived(f, r, pt, q)
    disc_verbatim = abs(verbatim - oracle)
    disc_derived = abs(derived - oracle)
    for comp in per_quadrant.values():
        disc_verbatim = max(disc_verbatim, abs(comp.verbatim - comp.oracle))
        disc_derived = max(disc_derived, abs(comp.derived - comp.oracle))
    return IdentityReport(
        oracle_value=oracle,
        verbatim_value=verbatim,
        derived_value=derived,
        per_quadrant=per_quadrant,
        max_abs_discrepancy_verbatim=disc_verbatim,
        max_abs_discrepancy_derived=disc_derived,
        status_ok=abs(derived - oracle) <= tol * (1.0 + abs(oracle)),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# reference samplers: materialised meshgrids and one call of f per line
# ---------------------------------------------------------------------------
#
# Copies of the grid samplers as they were before f received per-axis
# coordinates: every call of f gets full meshgrids, and each line is a
# univariate cross-section (fix_t / fix_s) sampled with its fixed
# coordinate as a scalar. The outer-product samplers must match them bit
# for bit.


def reference_integrate_2d(f, r, q, split=None) -> float:
    f = as_bivariate(f)
    t_breaks = (split.x,) if split is not None else ()
    s_breaks = (split.y,) if split is not None else ()
    tn, tw = _axis_quadrature(r.t_axis, q, t_breaks)
    sn, sw = _axis_quadrature(r.s_axis, q, s_breaks)
    T, S = np.meshgrid(tn, sn, indexing="ij")
    vals = sample_bivariate(f, T, S)
    _check_finite(vals, f.label)
    return float(tw @ vals @ sw)


def reference_quadrant_samples(f, r, pt, q) -> tuple:
    """identity._quadrant_samples from the reference samplers: the anchor's
    terms with the meshgrid split double integral, every half-line
    integrated on its own (0.0 over a half of zero width) and each
    quadrant's double integral from its own meshgrid (0.0 for a quadrant
    of zero width)."""
    a, b, c, d = r.t_axis.lo, r.t_axis.hi, r.s_axis.lo, r.s_axis.hi
    x, y = pt.x, pt.y
    (terms,) = reference_anchor_terms(f, r, [pt], q,
                                      doubles=[reference_integrate_2d(f, r, q, split=pt)])
    along_t = [[_ref_line(f.fix_s(v), lo, hi, q) for lo, hi in ((a, x), (x, b))]
               for v in (y, c, d)]
    along_s = [[_ref_line(f.fix_t(u), lo, hi, q) for lo, hi in ((c, y), (y, d))]
               for u in (x, a, b)]
    double = {}
    for quad in Quadrant:
        (t_lo, t_hi, *_), (s_lo, s_hi, *_) = _ref_halves(r, pt, quad)
        double[quad] = (0.0 if t_hi <= t_lo or s_hi <= s_lo else reference_integrate_2d(
            f, Rectangle(Interval1D(t_lo, t_hi), Interval1D(s_lo, s_hi)), q))
    return terms, along_t, along_s, double


def reference_grid_values(f, ts, ss) -> np.ndarray:
    f = as_bivariate(f)
    per_block = max(1, BLOCK_SAMPLES // len(ss))
    out = np.empty((len(ts), len(ss)))
    for k in range(0, len(ts), per_block):
        T, S = np.meshgrid(ts[k:k + per_block], ss, indexing="ij")
        out[k:k + per_block] = sample_bivariate(f, T, S)
    return out


def reference_line_integrals(f, fixed_axis, fixed, nodes, weights) -> np.ndarray:
    f = as_bivariate(f)
    rows, width = nodes.shape
    per_block = max(1, BLOCK_SAMPLES // width)
    out = np.empty((len(fixed), rows))
    for i, x in enumerate(fixed):
        g = f.fix_t(x) if fixed_axis == "t" else f.fix_s(x)
        for k in range(0, rows, per_block):
            block = nodes[k:k + per_block]
            vals = sample_univariate(g, block.ravel()).reshape(block.shape)
            _check_finite(vals, g.label)
            out[i, k:k + per_block] = np.vecdot(weights[k:k + per_block], vals)
    return out


def reference_cell_bounds(f, t_edges, s_edges, grid_n: int, pad_rel: float):
    t_edges = np.asarray(t_edges, dtype=float)
    s_edges = np.asarray(s_edges, dtype=float)
    m, n = len(t_edges) - 1, len(s_edges) - 1
    starts = np.concatenate((t_edges[:-1], s_edges[:-1]))
    ends = np.concatenate((t_edges[1:], s_edges[1:]))
    samples = np.linspace(starts, ends, grid_n).T
    ts, ss = samples[:m], samples[m:]
    lo = np.empty(m * n)
    hi = np.empty(m * n)
    per_block = max(1, BLOCK_SAMPLES // (grid_n * grid_n))
    for start in range(0, m * n, per_block):
        cells = np.arange(start, min(start + per_block, m * n))
        i, j = np.divmod(cells, n)
        shape = (cells.size, grid_n, grid_n)
        T = np.ascontiguousarray(np.broadcast_to(ts[i, :, None], shape))
        S = np.ascontiguousarray(np.broadcast_to(ss[j, None, :], shape))
        vals = sample_mixed(f, T, S)
        _check_finite(vals, f"mixed partial of {f.label}")
        lo[cells] = vals.min(axis=(1, 2))
        hi[cells] = vals.max(axis=(1, 2))
    pad = pad_rel * (hi - lo) + 1e-12
    return (lo - pad).reshape(m, n), (hi + pad).reshape(m, n)


# ---------------------------------------------------------------------------
# reference derivative: the raw, unsimplified symbolic derivative
# ---------------------------------------------------------------------------


def reference_diff(e: ExprNode, var: str) -> ExprNode:
    """Product/quotient/chain rules with no simplification at all;
    simplify(reference_diff(e, v)) must equal differentiate(e, v)."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Unary):
        du = reference_diff(e.child, var)
        u = e.child
        if e.op == "neg":
            return Unary("neg", du)
        if e.op == "sin":
            return Binary("*", Unary("cos", u), du)
        if e.op == "cos":
            return Unary("neg", Binary("*", Unary("sin", u), du))
        if e.op == "exp":
            return Binary("*", Unary("exp", u), du)
        if e.op == "log":
            return Binary("/", du, u)
        if e.op == "sqrt":
            return Binary("/", du, Binary("*", Const(2.0), Unary("sqrt", u)))
        raise AssertionError(f"unknown unary op {e.op!r}")
    assert isinstance(e, Binary)
    if e.op in ("+", "-"):
        return Binary(e.op, reference_diff(e.left, var), reference_diff(e.right, var))
    if e.op == "*":
        return Binary(
            "+",
            Binary("*", reference_diff(e.left, var), e.right),
            Binary("*", e.left, reference_diff(e.right, var)),
        )
    if e.op == "/":
        num = Binary(
            "-",
            Binary("*", reference_diff(e.left, var), e.right),
            Binary("*", e.left, reference_diff(e.right, var)),
        )
        return Binary("/", num, Binary("^", e.right, Const(2.0)))
    if e.op == "^":
        base, expo = e.left, e.right
        if isinstance(simplify(expo), Const):
            n = simplify(expo).value
            power = Binary("^", base, Const(n - 1.0))
            return Binary("*", Binary("*", Const(n), power), reference_diff(base, var))
        inner = Binary(
            "+",
            Binary("*", reference_diff(expo, var), Unary("log", base)),
            Binary("*", expo, Binary("/", reference_diff(base, var), base)),
        )
        return Binary("*", e, inner)
    raise AssertionError(f"unknown binary op {e.op!r}")


def tree_key(e: ExprNode):
    """Structural key of a tree that, unlike ==, tells Const(-0.0) from
    Const(0.0)."""
    if isinstance(e, Const):
        return ("const", e.value.hex())
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, Unary):
        return ("unary", e.op, tree_key(e.child))
    return ("binary", e.op, tree_key(e.left), tree_key(e.right))


# ---------------------------------------------------------------------------
# reference verify loop: one trial at a time through the public functions
# ---------------------------------------------------------------------------


def reference_anchor_terms(f, r, anchors, q, doubles=None) -> list:
    """rules.anchor_terms as it took several anchors of one rectangle at
    once: one grid of point values over every anchor's x and y and the
    edges, the lines s = y, t = x of each anchor plus the four edge lines
    (shared by all anchors), and one split double integral per anchor,
    unless doubles gives them."""
    a, b = r.t_axis.lo, r.t_axis.hi
    c, d = r.s_axis.lo, r.s_axis.hi
    k = len(anchors)
    grid = grid_values(f, np.array([pt.x for pt in anchors] + [a, b]),
                       np.array([pt.y for pt in anchors] + [c, d])).tolist()

    def lines(fixed_axis, fixed, iv):
        nodes, weights = _axis_quadrature(iv, q)
        return line_integrals(f, fixed_axis, fixed, nodes[None, :],
                              weights[None, :])[:, 0].tolist()

    along_t = lines("s", [pt.y for pt in anchors] + [c, d], r.t_axis)
    along_s = lines("t", [pt.x for pt in anchors] + [a, b], r.s_axis)
    if doubles is None:
        doubles = [integrate_2d(f, r, q, split=pt) for pt in anchors]
    out = []
    for n, pt in enumerate(anchors):
        idx = (n, k, k + 1)
        out.append(AnchorTerms(
            rect=r,
            point=pt,
            values=tuple(tuple(grid[i][j] for j in idx) for i in idx),
            along_t=tuple(along_t[u] for u in idx),
            along_s=tuple(along_s[u] for u in idx),
            double=doubles[n],
        ))
    return out


class _ReferenceTally:
    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.rechecks = 0
        self.worst_gap = None
        self.worst_case = None

    def record(self, case: dict, outcome) -> None:
        self.trials += 1
        gap = outcome.gap
        if self.worst_gap is None or gap > self.worst_gap:
            self.worst_gap = gap
            self.worst_case = dict(case, lhs=outcome.lhs, rhs=outcome.rhs)

    def summary(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "rechecks": self.rechecks,
            "worst_gap": self.worst_gap,
            "worst_case": self.worst_case,
        }


def _reference_deriv_range(g, iv) -> tuple[float, float]:
    deriv = UnivariateFunction(fn=g.deriv_fn, vectorized=True)
    vals = sample_univariate(deriv, np.linspace(iv.lo, iv.hi, 129))
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    pad = 0.25 * (hi - lo) + 1e-12
    return lo - pad, hi + pad


def reference_run_verify(opts: dict, crafted: Optional[dict] = None):
    """cli._run_verify as it ran each trial on its own: every trial is
    drawn, turned into expression trees with their labels and sampled
    through reference_anchor_terms, interval_terms and estimate_bounds
    before the next is drawn. crafted maps a trial index to a trial record (fields
    seed, f, rect, p, q, g, interval, x) that replaces what the index
    would draw."""
    from ostrocube import cli

    crafted = crafted or {}
    rules = opts["rules"]
    lam = opts["lam"]
    cfg = cli._VERIFY_CFG
    tallies = {rule: _ReferenceTally() for rule in rules}

    def apply(rule, case, outcome) -> None:
        tally = tallies[rule]
        if not outcome.satisfied and rule in ("t3", "t4"):
            tally.rechecks += 1
            outcome = cli._eval_rule_case(rule, case, cfg.refined())
        if not outcome.satisfied:
            tally.violations += 1
        tally.record(case, outcome)

    def audit_1d(g, base, magnitude, lower, upper) -> None:
        terms = interval_terms(g, Interval1D(*base["interval"]), base["x"], cfg,
                               ends="t2" in tallies)
        if "t1" in tallies:
            apply("t1", dict(base, magnitude=magnitude),
                  ostrowski_from_terms(terms, DerivativeBound1D.abs_bound(magnitude)))
        if "t2" in tallies:
            apply("t2", dict(base, lower=lower, upper=upper),
                  cheng_from_terms(terms, DerivativeBound1D.from_range(lower, upper)))

    def audit_2d(f, r, db, base, p, q) -> None:
        p_rules = [rule for rule in cli._RULES_2D if rule in tallies]
        points = ([p] if p_rules else []) + ([q] if "t4" in tallies else [])
        terms = reference_anchor_terms(f, r, [make_point(r, *pt) for pt in points], cfg)
        for rule in p_rules:
            apply(rule, dict(base, point=p), cli._RULES_2D[rule](terms[0], db))
        if "t4" in tallies:
            apply("t4", dict(base, point=q, **{"lambda": lam}),
                  qiaoling_from_terms(terms[-1], db, Lambda(lam)))

    one_variable = "t1" in tallies or "t2" in tallies
    two_variable = any(rule in tallies for rule in cli.RULE_ORDER[2:])

    for name, text, x, magnitude, lo, hi in cli._FIXTURES_1D:
        if one_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "interval": [0.0, 1.0], "x": x}
            audit_1d(to_univariate(parse_expression(text)), base, magnitude, lo, hi)

    unit = make_rectangle(0.0, 1.0, 0.0, 1.0)
    for name, text, lo, hi in cli._FIXTURES_2D:
        if two_variable:
            base = {"source": f"fixture:{name}", "seed": None, "expr": text,
                    "rect": [0.0, 1.0, 0.0, 1.0], "point": [0.5, 0.5],
                    "lower": lo, "upper": hi}
            audit_2d(to_bivariate(parse_expression(text)), unit, DerivativeBounds(lo, hi),
                     base, [0.5, 0.5], [0.5, 0.5])

    for k in range(opts["trials"]):
        tseed = derive_seed(opts["seed"], k)
        rng = XorShift64Star(tseed)
        poly2 = random_polynomial(rng, opts["degree"])
        t_lo, t_hi = cli._random_interval(rng)
        s_lo, s_hi = cli._random_interval(rng)
        px = rng.uniform(t_lo, t_hi)
        py = rng.uniform(s_lo, s_hi)
        bx_lo = t_lo + 0.5 * lam * (t_hi - t_lo)
        bx_hi = t_hi - 0.5 * lam * (t_hi - t_lo)
        by_lo = s_lo + 0.5 * lam * (s_hi - s_lo)
        by_hi = s_hi - 0.5 * lam * (s_hi - s_lo)
        qx = rng.uniform(bx_lo, bx_hi)
        qy = rng.uniform(by_lo, by_hi)
        poly1 = polynomial_1d(draw_polynomial_1d(rng, opts["degree"]))
        i_lo, i_hi = cli._random_interval(rng)
        x1 = rng.uniform(i_lo, i_hi)
        if k in crafted:
            trial = crafted[k]
            tseed = trial.seed
            poly2, poly1 = polynomial(trial.f), polynomial_1d(trial.g)
            t_lo, t_hi, s_lo, s_hi = trial.rect
            (px, py), (qx, qy) = trial.p, trial.q
            (i_lo, i_hi), x1 = trial.interval, trial.x

        if one_variable:
            g = to_univariate(poly1)
            d_lo, d_hi = _reference_deriv_range(g, Interval1D(i_lo, i_hi))
            base1 = {"source": f"trial:{k}", "seed": tseed,
                     "expr": g.label, "interval": [i_lo, i_hi], "x": x1}
            audit_1d(g, base1, max(abs(d_lo), abs(d_hi)), d_lo, d_hi)

        if two_variable:
            f2 = to_bivariate(poly2)
            rect = make_rectangle(t_lo, t_hi, s_lo, s_hi)
            db = estimate_bounds(f2, rect, grid_n=33, pad_rel=0.25)
            base2 = {"source": f"trial:{k}", "seed": tseed,
                     "expr": f2.label, "rect": [t_lo, t_hi, s_lo, s_hi],
                     "lower": db.lower, "upper": db.upper}
            audit_2d(f2, rect, db, base2, [px, py], [qx, qy])

    results = {
        "rules": {rule: tallies[rule].summary() for rule in rules},
        "corpus": {
            "trials": opts["trials"],
            "seed": opts["seed"],
            "degree": opts["degree"],
            "lambda": lam,
            "fixtures_1d": [name for name, *_ in cli._FIXTURES_1D],
            "fixtures_2d": [name for name, *_ in cli._FIXTURES_2D],
            "domain": [-1.0, 1.0],
        },
        "tool_version": cli.__version__,
    }
    exit_code = 0
    for rule in opts["expect_hold"]:
        if rule in tallies and tallies[rule].violations > 0:
            exit_code = 3
    total = sum(t.violations for t in tallies.values())
    return results, {"rigorous": False, "violations": total}, exit_code


# one entry per --degree value
@lru_cache(maxsize=7)
def templates(degree: int) -> tuple:
    """Stacked programs of f, its mixed partial, g and g' for the trials of
    `--degree degree`, for expr.run_program with one coefficient column
    per slot.

    The templates are the Horner trees of a full (degree+1) x (degree+1)
    polynomial (slot i * (degree+1) + j holds the coefficient of t^i s^j)
    and of a degree+1 coefficient univariate one, over slot constants,
    differentiated as to_bivariate and to_univariate do. The slots are
    distinct and neither 0 nor 1, so no unit law of simplify fires and
    every coefficient keeps its own node. A trial fills the slots with its
    coefficients, padded with zeros to the full degree. A padded node adds
    a signed zero to a nonzero value, which leaves it unchanged, so every
    sample equals the one the trial's own tree gives (the tree in which
    simplify has dropped those nodes).
    """
    n = degree + 1
    slots = [2.0 + j / 256.0 for j in range(n * n)]
    f = polynomial([slots[i * n:(i + 1) * n] for i in range(n)])
    g = polynomial_1d(slots[:n])
    trees = (f, differentiate(differentiate(f, "t"), "s"), g, differentiate(g, "t"))
    return tuple(stacked_program(e, slots) for e in trees)


# ---------------------------------------------------------------------------
# minor page faults of a repeated CLI call, in a fresh interpreter
# ---------------------------------------------------------------------------

_FAULTS = """
import io, resource, sys
from contextlib import redirect_stdout
from ostrocube import cli

def run():
    with redirect_stdout(io.StringIO()):
        assert cli.run_main(sys.argv[1:]) == 0

run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(argv: list, bytecode: bool, prefix: Path) -> int:
    """Minor page faults of the second of two in-process runs of the CLI
    with argv, in a fresh interpreter that reads bytecode only from the
    empty directory prefix (PYTHONPYCACHEPREFIX): with bytecode False every
    module is compiled from source (-B); with True, a first interpreter
    running the same script writes the bytecode of every module it imports
    there, and the measured one reads it, as an installed package or a CI
    checkout is imported. The two leave the C heap in different states."""
    package = Path(cli.__file__).resolve().parent
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix), PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    script = [sys.executable, "-B", "-c", _FAULTS, *argv]
    if bytecode:
        subprocess.run([sys.executable, "-c", _FAULTS, *argv], capture_output=True, env=env,
                       timeout=120, check=True)
    proc = subprocess.run(script, capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    return int(proc.stdout)
