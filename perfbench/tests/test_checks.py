"""Tests of the benchmark's own output checks and reference values.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def _enclose_op(bounds=(0.0, 2.0)):
    return {"check": "enclose", "rect": [0.0, 1.0, 0.0, 1.0], "subdivide": [4, 4],
            "point": None, "bounds": None if bounds is None else list(bounds),
            "reference": 1.0, "expect_fail": False}


def _enclose_doc(lo, hi, rigorous=True, pad=1e-14, bounds_used=(0.0, 2.0)):
    return {"subcommand": "enclose", "results": {
        "enclosure": {"lo": lo, "hi": hi, "center": 0.5 * (lo + hi), "width": hi - lo},
        "cells": 16, "quadrature_padding": pad, "rigorous": rigorous,
        "bounds_used": {"lower": bounds_used[0], "upper": bounds_used[1]},
    }}


# (U - L) 25 / (1024 * 16) with U - L = 2
_MOMENT_WIDTH = 2.0 * 25.0 / (1024.0 * 16.0)


def test_enclose_containing_interval_passes():
    doc = _enclose_doc(1.0 - 0.4 * _MOMENT_WIDTH, 1.0 + 0.4 * _MOMENT_WIDTH)
    assert checks.check(_enclose_op(), 0, doc) is None


def test_enclose_interval_missing_reference_is_flagged():
    doc = _enclose_doc(1.0 + 1e-9, 1.0 + 1e-9 + _MOMENT_WIDTH / 2)
    assert "misses reference" in checks.check(_enclose_op(), 0, doc)


def test_enclose_missing_reference_passes_when_flagged_non_rigorous():
    doc = _enclose_doc(1.0 + 1e-9, 1.0 + 1e-9 + _MOMENT_WIDTH / 2, rigorous=False)
    assert checks.check(_enclose_op(bounds=None), 0, doc) is None


def test_enclose_sampled_bounds_reported_rigorous_is_flagged():
    doc = _enclose_doc(1.0 - 1e-3, 1.0 + 1e-3, rigorous=True)
    assert "sampled bounds" in checks.check(_enclose_op(bounds=None), 0, doc)


def test_enclose_wider_than_moment_width_is_flagged():
    doc = _enclose_doc(1.0 - _MOMENT_WIDTH, 1.0 + _MOMENT_WIDTH)
    assert "exceeds moment width" in checks.check(_enclose_op(), 0, doc)


def test_nonzero_exit_is_flagged():
    assert checks.check(_enclose_op(), 1, None) == "exit code 1"


def _verify_op():
    return {"check": "verify", "trials": 10, "seed": 7, "lambda": 0.2, "degree": 4,
            "expect_fail": False}


def _verify_doc():
    rules = {r: {"trials": 13, "violations": 0, "rechecks": 0}
             for r in ("t1", "t2", "t3", "t4", "corrected")}
    rules["t5"] = {"trials": 13, "violations": 5, "rechecks": 0}
    return {"subcommand": "verify", "results": {
        "rules": rules, "corpus": {"trials": 10, "seed": 7, "lambda": 0.2}}}


def test_verify_clean_report_passes():
    assert checks.check(_verify_op(), 0, _verify_doc()) is None


def test_verify_t3_violation_is_flagged():
    doc = _verify_doc()
    doc["results"]["rules"]["t3"]["violations"] = 1
    assert checks.check(_verify_op(), 0, doc).startswith("t3:")


def test_verify_t5_without_violation_is_flagged():
    doc = _verify_doc()
    doc["results"]["rules"]["t5"]["violations"] = 0
    assert checks.check(_verify_op(), 0, doc).startswith("t5:")


def _constant_compare():
    op = next(o for o in workloads.anchor_mix_round(random.Random(0), per_kind=1)
              if "t5_lhs" in o)
    doc = {"subcommand": "compare", "results": {
        "lhs": {"sarikaya": 0.0, "qiaoling": 0.0, "t5_verbatim": 0.1875, "corrected": 0.0},
        "widths": {"sarikaya": 0.0, "qiaoling": 0.0, "t5_verbatim": 0.0, "corrected": 0.0},
        "violated": {"sarikaya": False, "qiaoling": False, "t5_verbatim": True,
                     "corrected": False},
    }}
    return op, doc


def test_compare_constant_t5_lhs_passes_and_a_wrong_one_is_flagged():
    op, doc = _constant_compare()
    assert checks.check(op, 0, doc) is None
    bad = copy.deepcopy(doc)
    bad["results"]["lhs"]["t5_verbatim"] = 0.0
    assert "t5 lhs" in checks.check(op, 0, bad)


def test_poly_references_match_mpmath_quadrature():
    poly = workloads.Poly([(0.5, 2, 1), (-0.25, 1, 3), (0.75, 0, 2)])
    rect = (-0.3, 0.9, 0.1, 1.4)
    direct = mpmath.quad(lambda t, s: poly.value(float(t), float(s)),
                         [rect[0], rect[1]], [rect[2], rect[3]])
    assert float(poly.double(*rect)) == pytest.approx(float(direct), rel=1e-12)


def test_kernel_value_matches_kernel_weighted_mixed_partial():
    # f = t^2 s^2: mixed partial 4 t s, integrated against k_t(t) k_s(s)
    poly = workloads.Poly([(1.0, 2, 2)])
    a, b, c, d = rect = (0.0, 1.0, -0.5, 1.5)
    x, y = pt = (0.3, 0.9)

    def kernel(u, lo, hi, anchor):
        return u - (3 * lo + anchor) / 4 if u <= anchor else u - (3 * hi + anchor) / 4

    direct = mpmath.quad(
        lambda t, s: kernel(t, a, b, x) * kernel(s, c, d, y) * 4 * t * s,
        [a, x, b], [c, y, d])
    assert workloads.kernel_value(poly, rect, pt) == pytest.approx(float(direct), rel=1e-12)


@pytest.mark.parametrize("fam", [workloads.ExpTS(), workloads.SinCos(), workloads.LogT()],
                         ids=lambda f: f.text)
def test_closed_form_mixed_ranges_contain_sampled_values(fam):
    rng = random.Random(3)
    mixed = {
        "exp(t*s)": lambda t, s: math.exp(t * s) * (1 + t * s),
        "sin(t)*cos(s)": lambda t, s: -math.cos(t) * math.sin(s),
        "log(2+t+s)*t": lambda t, s: (2 + s) / (2 + t + s) ** 2,
    }[fam.text]
    for k in range(20):
        a, b, c, d = workloads._draw_rect(rng, 2.0, workloads._NEG_SHARES[k % 2])
        lo, hi = fam.mixed_range(a, b, c, d)
        for i in range(11):
            for j in range(11):
                v = mixed(a + i * (b - a) / 10, c + j * (d - c) / 10)
                assert lo <= v <= hi
