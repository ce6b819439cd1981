"""Seeded operation lists for the benchmark workloads, with reference values.

Every operation is one `ostrocube` command line plus what its output is
checked against. Reference values are computed here, apart from the
program: exact rational arithmetic for polynomials, closed forms for the
product-separable integrand, and mpmath (30 digits) where a closed form is
not at hand. Derivative bounds passed to the program are closed-form ranges
of the exact mixed partial, or coefficient-sum bounds for polynomials;
nothing is sampled.

A workload's list is one *round*: the benchmark repeats whole rounds, so
the share of failing operations is the same in every run. The shape of a
round (grid sizes, integrand kinds, subcommands, bound modes) is fixed; the
seed draws rectangles, anchors, coefficients and audit seeds.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30

WORKLOADS = ("enclose-grid", "audit", "anchor-mix")


def _outward(lo: float, hi: float) -> tuple[float, float]:
    """Widen a float range by a relative 1e-12 to absorb rounding in its
    closed-form evaluation."""
    return lo - 1e-12 * (1.0 + abs(lo)), hi + 1e-12 * (1.0 + abs(hi))


def _mp(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


# ---------------------------------------------------------------------------
# integrand families: text, point values, line and double integrals, and a
# closed-form range of the mixed partial d2f/dtds over a rectangle
# ---------------------------------------------------------------------------


class ExpTS:
    """exp(t*s); mixed partial e^u (1 + u) with u = t*s."""

    text = "exp(t*s)"

    def value(self, t, s):
        return mpmath.exp(_mp(t) * _mp(s))

    def line_s(self, x, c, d):
        x = _mp(x)
        if x == 0:
            return _mp(d) - _mp(c)
        return (mpmath.exp(x * _mp(d)) - mpmath.exp(x * _mp(c))) / x

    def line_t(self, y, a, b):
        return self.line_s(y, a, b)

    def double(self, a, b, c, d):
        pts = [_mp(a), _mp(b)]
        if a < 0.0 < b:
            pts.insert(1, mpmath.mpf(0))
        return mpmath.quad(lambda t: self.line_s(t, c, d), pts)

    def mixed_range(self, a, b, c, d):
        corners = [a * c, a * d, b * c, b * d]
        u_lo, u_hi = min(corners), max(corners)
        g = lambda u: math.exp(u) * (1.0 + u)  # noqa: E731
        lo = -math.exp(-2.0) if u_lo <= -2.0 <= u_hi else min(g(u_lo), g(u_hi))
        return _outward(lo, max(g(u_lo), g(u_hi)))


def _cos_range(lo: float, hi: float) -> tuple[float, float]:
    """Exact range of cos over [lo, hi] from its extrema at multiples of pi."""
    vals = [math.cos(lo), math.cos(hi)]
    k = math.ceil(lo / math.pi)
    while k * math.pi <= hi:
        vals.append(1.0 if k % 2 == 0 else -1.0)
        k += 1
    return min(vals), max(vals)


class SinCos:
    """sin(t)*cos(s); product-separable, mixed partial -cos(t) sin(s)."""

    text = "sin(t)*cos(s)"

    def value(self, t, s):
        return mpmath.sin(_mp(t)) * mpmath.cos(_mp(s))

    def line_s(self, x, c, d):
        return mpmath.sin(_mp(x)) * (mpmath.sin(_mp(d)) - mpmath.sin(_mp(c)))

    def line_t(self, y, a, b):
        return mpmath.cos(_mp(y)) * (mpmath.cos(_mp(a)) - mpmath.cos(_mp(b)))

    def double(self, a, b, c, d):
        return (mpmath.cos(_mp(a)) - mpmath.cos(_mp(b))) * (
            mpmath.sin(_mp(d)) - mpmath.sin(_mp(c))
        )

    def mixed_range(self, a, b, c, d):
        c_lo, c_hi = _cos_range(a, b)
        # sin(s) = cos(s - pi/2)
        s_lo, s_hi = _cos_range(c - math.pi / 2.0, d - math.pi / 2.0)
        prods = [p * q for p in (c_lo, c_hi) for q in (s_lo, s_hi)]
        return _outward(-max(prods), -min(prods))


class LogT:
    """log(2+t+s)*t; mixed partial (2+s)/(2+t+s)^2. Needs 2+t+s > 0."""

    text = "log(2+t+s)*t"

    @staticmethod
    def _f_antideriv(u):
        return u * mpmath.log(u) - u

    def value(self, t, s):
        return mpmath.log(2 + _mp(t) + _mp(s)) * _mp(t)

    def line_s(self, x, c, d):
        x = _mp(x)
        return x * (self._f_antideriv(2 + x + _mp(d)) - self._f_antideriv(2 + x + _mp(c)))

    def line_t(self, y, a, b):
        # t = w - beta with w = 2 + t + y
        beta = 2 + _mp(y)

        def prim(w):
            return w * w / 2 * mpmath.log(w) - w * w / 4 - beta * (w * mpmath.log(w) - w)

        return prim(beta + _mp(b)) - prim(beta + _mp(a))

    def double(self, a, b, c, d):
        return mpmath.quad(lambda t: self.line_s(t, c, d), [_mp(a), _mp(b)])

    def mixed_range(self, a, b, c, d):
        # numerator 2+s and denominator (2+t+s)^2 are positive on the domain
        lo = (2.0 + c) / (2.0 + b + d) ** 2
        hi = (2.0 + d) / (2.0 + a + c) ** 2
        return _outward(lo, hi)


class SqrtSum:
    """sqrt(t)+sqrt(s) on the unit square: the mixed partial is exactly 0,
    the integrand is singular in its derivative at t = 0 and s = 0."""

    text = "sqrt(t)+sqrt(s)"

    def double(self, a, b, c, d):
        if (a, b, c, d) != (0.0, 1.0, 0.0, 1.0):
            raise ValueError("SqrtSum is only used on the unit square")
        return mpmath.mpf(4) / 3

    def mixed_range(self, a, b, c, d):
        return 0.0, 0.0


def _power(var: str, k: int) -> str:
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


class Poly:
    """Sum of monomials c * t^i * s^j with exact rational reference values."""

    def __init__(self, terms: list[tuple[float, int, int]]):
        self.terms = [(Fraction(c), i, j) for c, i, j in terms]
        parts = []
        for k, (c, i, j) in enumerate(terms):
            factors = [repr(abs(c)) if k else repr(c)]
            factors += [_power("t", i), _power("s", j)]
            factors = [f for f in factors if f]
            body = "*".join(factors)
            parts.append(body if k == 0 else (" - " if c < 0 else " + ") + body)
        self.text = "".join(parts)

    def value(self, t, s):
        t, s = Fraction(t), Fraction(s)
        return _mp(sum(c * t**i * s**j for c, i, j in self.terms))

    @staticmethod
    def _mono_int(k: int, lo: float, hi: float) -> Fraction:
        return (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)

    def line_s(self, x, c, d):
        x = Fraction(x)
        return _mp(sum(co * x**i * self._mono_int(j, c, d) for co, i, j in self.terms))

    def line_t(self, y, a, b):
        y = Fraction(y)
        return _mp(sum(co * self._mono_int(i, a, b) * y**j for co, i, j in self.terms))

    def double(self, a, b, c, d):
        return _mp(sum(
            co * self._mono_int(i, a, b) * self._mono_int(j, c, d)
            for co, i, j in self.terms
        ))

    def mixed_range(self, a, b, c, d):
        """Coefficient-sum bound: the constant (1, 1) term exactly, every
        other term by |i j c| R_t^(i-1) R_s^(j-1)."""
        rt, rs = max(abs(a), abs(b)), max(abs(c), abs(d))
        mid = 0.0
        spread = 0.0
        for co, i, j in self.terms:
            if i == 1 and j == 1:
                mid += float(co)
            elif i >= 1 and j >= 1:
                spread += abs(float(co)) * i * j * rt ** (i - 1) * rs ** (j - 1)
        return _outward(mid - spread, mid + spread)


# one fixed set of monomials (i, j), so that every seeded polynomial costs
# the program the same to parse, differentiate and evaluate
_POLY_MONOMIALS = ((1, 1), (2, 1), (1, 3), (2, 2), (3, 0))


def random_poly(rng: random.Random) -> Poly:
    """The fixed monomials in seeded order, with coefficients of either sign
    and magnitude in [0.1, 1]."""
    monomials = list(_POLY_MONOMIALS)
    rng.shuffle(monomials)
    return Poly([(round(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0), 4), i, j)
                 for i, j in monomials])


def make_family(kind: str, rng: random.Random):
    if kind == "exp":
        return ExpTS()
    if kind == "sincos":
        return SinCos()
    if kind == "log":
        return LogT()
    if kind == "poly":
        return random_poly(rng)
    raise ValueError(f"unknown integrand kind {kind!r}")


KINDS = ("exp", "sincos", "log", "poly")


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def kernel_value(fam, rect, pt) -> float:
    """V = (L_t x L_s) f, the kernel-weighted integral of the mixed partial,
    from the per-axis boundary functional
    L(g) = (3L/4) g(x) + ((x-a)/4) g(a) + ((b-x)/4) g(b) - integral of g."""
    a, b, c, d = rect
    x, y = pt
    t_nodes = (x, a, b)
    s_nodes = (y, c, d)
    t_w = (0.75 * (_mp(b) - _mp(a)), (_mp(x) - _mp(a)) / 4, (_mp(b) - _mp(x)) / 4)
    s_w = (0.75 * (_mp(d) - _mp(c)), (_mp(y) - _mp(c)) / 4, (_mp(d) - _mp(y)) / 4)
    points = sum(
        wt * ws * fam.value(tn, sn)
        for tn, wt in zip(t_nodes, t_w)
        for sn, ws in zip(s_nodes, s_w)
    )
    lines_t = sum(wt * fam.line_s(tn, c, d) for tn, wt in zip(t_nodes, t_w))
    lines_s = sum(ws * fam.line_t(sn, a, b) for sn, ws in zip(s_nodes, s_w))
    return float(points - lines_t - lines_s + fam.double(a, b, c, d))


def _fmt(x: float) -> str:
    """Shortest round-trip digits in positional notation: the CLI's argparse
    reads a negative number in exponent form ("-1e-05") as an option."""
    return format(Decimal(repr(float(x))), "f")


def _rect_args(rect) -> list[str]:
    return ["--rect", *(_fmt(v) for v in rect)]


# Shares of each rectangle side below zero. Powers of a negative base cost
# the program far more (numpy's pow is ~20x slower there), so each slot gets
# a fixed share rather than a seeded one: the seed moves the rectangle, not
# the cost of the operation.
_NEG_SHARES = (0.0, 0.25)


def _draw_rect(rng: random.Random, scale: float, neg_share: float):
    """Rectangle with sides scale * [0.8, 1.2] and the given share of each
    side below zero; 2+t+s > 0 on it, as the log integrand needs."""
    lt = scale * rng.uniform(0.8, 1.2)
    ls = scale * rng.uniform(0.8, 1.2)
    if neg_share:
        a, c = -neg_share * lt, -neg_share * ls
    else:
        a, c = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
    return round(a, 3), round(a + lt, 3), round(c, 3), round(c + ls, 3)


def _enclose_op(fam, rect, m: int, auto: bool, point=None, expect_fail=False) -> dict:
    argv = ["enclose", "--f", fam.text, *_rect_args(rect)]
    if point is not None:
        argv += ["--point", _fmt(point[0]), _fmt(point[1])]
    bounds = None
    if auto:
        argv += ["--bounds", "auto"]
    else:
        bounds = list(fam.mixed_range(*rect))
        argv += ["--bounds", _fmt(bounds[0]), _fmt(bounds[1])]
    if m != 1:
        argv += ["--subdivide", str(m), str(m)]
    argv.append("--json")
    return {
        "argv": argv, "check": "enclose", "rect": list(rect), "subdivide": [m, m],
        "point": None if point is None else list(point), "bounds": bounds,
        "expect_fail": expect_fail, "fam": fam,
    }


# enclose-grid round: (grid side m, slots, integrand kinds cycled, bounds
# mode), where "cycle" makes every third slot --bounds auto (about a third
# of the round). 39 slots plus the two singular operations make 41, so the
# median and the 90th percentile fall inside a block of repeats of one
# operation rather than between two. Polynomials cost more per cell and
# more unevenly (see _NEG_SHARES), so they stay on the small grids; the
# four m = 32 slots are alike, and the 90th percentile falls among them.
_GRID_SLOTS = (
    (8, 12, KINDS, "cycle"),
    (12, 8, KINDS, "cycle"),
    (16, 8, KINDS[:3], "cycle"),
    (24, 5, KINDS[:3], "cycle"),
    (32, 4, ("exp",), "given"),
    (48, 1, ("log",), "auto"),
    (64, 1, ("sincos",), "given"),
)
# singular-endpoint operations kept on purpose; their bounds 0 0 are exact
_SINGULAR_GRIDS = (8, 16)


def enclose_grid_round(rng: random.Random) -> list[dict]:
    ops = []
    slot = 0
    for m, count, kinds, mode in _GRID_SLOTS:
        for _ in range(count):
            fam = make_family(kinds[slot % len(kinds)], rng)
            rect = _draw_rect(rng, 1.0, _NEG_SHARES[slot // len(KINDS) % 2])
            auto = mode == "auto" or (mode == "cycle" and slot % 3 == 2)
            ops.append(_enclose_op(fam, rect, m, auto=auto))
            slot += 1
    for m in _SINGULAR_GRIDS:
        ops.append(_enclose_op(SqrtSum(), (0.0, 1.0, 0.0, 1.0), m, auto=False,
                               expect_fail=True))
    return ops


_AUDIT_OPS = 192
_AUDIT_TRIALS = 25
_AUDIT_LAMBDAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
_AUDIT_DEGREES = (3, 4, 5, 6)


def audit_round(rng: random.Random, n_ops: int = _AUDIT_OPS,
                trials: int = _AUDIT_TRIALS) -> list[dict]:
    ops = []
    for k in range(n_ops):
        lam = _AUDIT_LAMBDAS[k % len(_AUDIT_LAMBDAS)]
        degree = _AUDIT_DEGREES[k % len(_AUDIT_DEGREES)]
        seed = rng.getrandbits(32)
        argv = ["verify", "--trials", str(trials), "--seed", str(seed),
                "--degree", str(degree), "--lambda", _fmt(lam), "--json"]
        ops.append({"argv": argv, "check": "verify", "trials": trials, "seed": seed,
                    "lambda": lam, "degree": degree, "expect_fail": False})
    return ops


_ANCHOR_SCALES = (0.25, 0.5, 1.0, 2.0)
_COMPARE_LAMBDAS = (0.0, 0.2, 0.4)


# Off-centre anchors as fractions of each side, fixed per slot for the same
# reason as _NEG_SHARES: the anchor splits the rectangle into the quadrants
# the program integrates over. Compare anchors stay inside the box that
# lambda <= 0.4 requires.
_ANCHOR_US = (0.15, 0.3, 0.7, 0.85)
_COMPARE_US = (0.25, 0.35, 0.65, 0.75)


def _anchor(rect, u: float, v: float) -> tuple[float, float]:
    a, b, c, d = rect
    return round(a + u * (b - a), 6), round(c + v * (d - c), 6)


def anchor_mix_round(rng: random.Random, per_kind: int = 40) -> list[dict]:
    ops = []
    for k in range(per_kind):
        scale = _ANCHOR_SCALES[k % len(_ANCHOR_SCALES)]
        kind = KINDS[(k // len(_ANCHOR_SCALES) + k) % len(KINDS)]
        neg = _NEG_SHARES[k // len(KINDS) % 2]
        u, v = k % 4, (k // 2 + 1) % 4

        fam = make_family(kind, rng)
        rect = _draw_rect(rng, scale, neg)
        pt = _anchor(rect, _ANCHOR_US[u], _ANCHOR_US[v])
        ops.append({
            "argv": ["identity", "--f", fam.text, *_rect_args(rect),
                     "--point", _fmt(pt[0]), _fmt(pt[1]), "--json"],
            "check": "identity", "rect": list(rect), "point": list(pt),
            "expect_fail": False, "fam": fam,
        })

        fam = make_family(kind, rng)
        rect = _draw_rect(rng, scale, neg)
        lam = _COMPARE_LAMBDAS[k % len(_COMPARE_LAMBDAS)]
        pt = _anchor(rect, _COMPARE_US[u], _COMPARE_US[v])
        bounds = list(fam.mixed_range(*rect))
        ops.append({
            "argv": ["compare", "--f", fam.text, *_rect_args(rect),
                     "--point", _fmt(pt[0]), _fmt(pt[1]),
                     "--bounds", _fmt(bounds[0]), _fmt(bounds[1]),
                     "--lambda", _fmt(lam), "--json"],
            "check": "compare", "rect": list(rect), "point": list(pt),
            "bounds": bounds, "expect_fail": False, "fam": fam,
        })

        fam = make_family(kind, rng)
        rect = _draw_rect(rng, scale, neg)
        pt = _anchor(rect, _ANCHOR_US[v], _ANCHOR_US[u])
        ops.append(_enclose_op(fam, rect, 1, auto=(k % 3 == 2), point=pt))
    # the stated quarter-kernel rule on f == 1: lhs 3/16 against a zero bound
    ops.append({
        "argv": ["compare", "--f", "1", "--rect", "0", "1", "0", "1",
                 "--bounds", "0", "0", "--json"],
        "check": "compare", "rect": [0.0, 1.0, 0.0, 1.0], "point": [0.5, 0.5],
        "bounds": [0.0, 0.0], "expect_fail": False, "t5_lhs": 3.0 / 16.0,
        "kernel": 0.0,
    })
    return ops


_ROUND_MAKERS = {
    "enclose-grid": enclose_grid_round,
    "audit": audit_round,
    "anchor-mix": anchor_mix_round,
}


def _stream(workload: str, seed: int, purpose: int) -> random.Random:
    return random.Random(
        (int(seed) * 1_000_003 + WORKLOADS.index(workload) * 7919 + purpose) & (2**63 - 1)
    )


def build_round(workload: str, seed: int) -> list[dict]:
    """The seeded round of a workload, with every reference value filled in."""
    ops = _ROUND_MAKERS[workload](_stream(workload, seed, 0))
    for op in ops:
        fam = op.pop("fam", None)
        if fam is None:
            continue
        if op["check"] == "enclose":
            op["reference"] = float(fam.double(*op["rect"]))
        else:
            op["kernel"] = kernel_value(fam, op["rect"], op["point"])
    return ops


def build_warmup(workload: str, seed: int) -> list[dict]:
    """A few operations of the same shapes, drawn from another stream so that
    the warm-up primes code paths and lazy set-up, not per-input caches.
    Their outputs are not checked."""
    rng = _stream(workload, seed, 1)
    if workload == "enclose-grid":
        ops = [_enclose_op(make_family(kind, rng), _draw_rect(rng, 1.0, 0.0), 8,
                           auto=(k % 2 == 1)) for k, kind in enumerate(KINDS)]
    elif workload == "audit":
        ops = audit_round(rng, n_ops=4, trials=5)
    else:
        ops = anchor_mix_round(rng, per_kind=4)
    return [{"argv": op["argv"]} for op in ops]
