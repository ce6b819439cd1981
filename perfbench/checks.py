"""Checks of one operation's output against values computed apart from the
program, or against properties the method must have.

`check(op, code, doc)` returns None when the output passes and a one-line
reason when it does not. `op` is an operation from `workloads.build_round`,
`code` the exit code of `cli.run` and `doc` its parsed JSON document.
"""

from __future__ import annotations

_EPS = 2.220446049250313e-16
# the program's own agreement tolerance for the identity audit (--tol default)
_ID_TOL = 1e-9
_VERIFY_HOLD = ("t1", "t2", "t3", "t4", "corrected")
_FIXTURES = 3  # fixed regression inputs verify adds to every rule's trials


def abs_moment(rect, point) -> float:
    """Integral of |k_t k_s| for the quarter-offset kernels: per axis the
    two branches give 5((x-a)^2 + (b-x)^2)/16."""
    a, b, c, d = rect
    x, y = point
    return (5.0 * ((x - a) ** 2 + (b - x) ** 2) / 16.0) * (
        5.0 * ((y - c) ** 2 + (d - y) ** 2) / 16.0
    )


def signed_moment(rect, point) -> float:
    a, b, c, d = rect
    x, y = point
    return (((x - a) ** 2 - (b - x) ** 2) / 4.0) * (((y - c) ** 2 - (d - y) ** 2) / 4.0)


def moment_width(rect, subdivide, point, lower: float, upper: float) -> float:
    """(U - L) times the absolute moment: with midpoint anchors on an m x n
    grid this is (U-L) 25 (b-a)^2 (d-c)^2 / (1024 m n)."""
    a, b, c, d = rect
    m, n = subdivide
    if point is None:
        area_moment = 25.0 * (b - a) ** 2 * (d - c) ** 2 / (1024.0 * m * n)
    else:
        area_moment = abs_moment(rect, point)
    return (upper - lower) * area_moment


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def check_enclose(op: dict, doc: dict) -> str | None:
    res = doc["results"]
    lo, hi = res["enclosure"]["lo"], res["enclosure"]["hi"]
    ref = op["reference"]
    m, n = op["subdivide"]
    if res["cells"] != m * n:
        return f"cells {res['cells']} != {m * n}"
    auto = op["bounds"] is None
    if auto and res["rigorous"]:
        return "sampled bounds reported as rigorous"
    slop = 2.0 * _EPS * abs(ref)
    if not (lo - slop <= ref <= hi + slop) and res["rigorous"]:
        return f"rigorous interval [{lo!r}, {hi!r}] misses reference {ref!r}"
    if auto:
        lower, upper = res["bounds_used"]["lower"], res["bounds_used"]["upper"]
    else:
        lower, upper = op["bounds"]
    limit = (moment_width(op["rect"], op["subdivide"], op["point"], lower, upper)
             * (1.0 + 1e-12)
             + 2.0 * res["quadrature_padding"]
             + 4.0 * _EPS * (abs(lo) + abs(hi)))
    if hi - lo > limit:
        return f"width {hi - lo!r} exceeds moment width plus padding {limit!r}"
    return None


def check_verify(op: dict, doc: dict) -> str | None:
    rules = doc["results"]["rules"]
    corpus = doc["results"]["corpus"]
    if (corpus["trials"], corpus["seed"], corpus["lambda"]) != (
        op["trials"], op["seed"], op["lambda"]
    ):
        return f"corpus echo {corpus} does not match the request"
    for rule in (*_VERIFY_HOLD, "t5"):
        if rules[rule]["trials"] != op["trials"] + _FIXTURES:
            return f"{rule}: {rules[rule]['trials']} trials, expected {op['trials'] + _FIXTURES}"
    for rule in _VERIFY_HOLD:
        if rules[rule]["violations"] != 0:
            return f"{rule}: {rules[rule]['violations']} violation(s) of a rule that holds"
    if rules["t5"]["violations"] < 1:
        return "t5: no violation, but its stated form fails on f == 1"
    return None


def check_identity(op: dict, doc: dict) -> str | None:
    res = doc["results"]
    v = op["kernel"]
    tol = _ID_TOL * (1.0 + abs(v))
    if not res["status_ok"]:
        return "identity status not ok"
    if not _close(res["derived"], v, tol):
        return f"derived {res['derived']!r} != reference {v!r}"
    if not _close(res["oracle"], v, tol):
        return f"oracle {res['oracle']!r} != reference {v!r}"
    return None


def check_compare(op: dict, doc: dict) -> str | None:
    res = doc["results"]
    rect, point = op["rect"], op["point"]
    lower, upper = op["bounds"]
    a, b, c, d = rect
    x, y = point
    area = (b - a) * (d - c)
    for rule in ("sarikaya", "qiaoling", "corrected"):
        if res["violated"][rule]:
            return f"{rule} violated under valid bounds"
    sarikaya = (((x - a) ** 2 + (b - x) ** 2) * ((y - c) ** 2 + (d - y) ** 2)
                / (32.0 * area) * (upper - lower))
    if not _close(res["widths"]["sarikaya"], sarikaya, 1e-12 * (1.0 + sarikaya)):
        return f"sarikaya width {res['widths']['sarikaya']!r} != {sarikaya!r}"
    corrected = 0.5 * (upper - lower) * abs_moment(rect, point) / area
    if not _close(res["widths"]["corrected"], corrected, 1e-12 * (1.0 + corrected)):
        return f"corrected width {res['widths']['corrected']!r} != {corrected!r}"
    ms = 0.5 * (upper + lower) * signed_moment(rect, point)
    lhs = abs(op["kernel"] - ms) / area
    tol = _ID_TOL * (1.0 + abs(op["kernel"]) + abs(ms)) / area
    if not _close(res["lhs"]["corrected"], lhs, tol):
        return f"corrected lhs {res['lhs']['corrected']!r} != {lhs!r}"
    if "t5_lhs" in op:
        if not _close(res["lhs"]["t5_verbatim"], op["t5_lhs"], 1e-12):
            return f"t5 lhs {res['lhs']['t5_verbatim']!r} != {op['t5_lhs']!r}"
        if not res["violated"]["t5_verbatim"]:
            return "t5 not flagged on f == 1"
    return None


_CHECKS = {
    "enclose": check_enclose,
    "verify": check_verify,
    "identity": check_identity,
    "compare": check_compare,
}


def check(op: dict, code: int, doc: dict | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if doc is None:
        return "no JSON document"
    if doc.get("subcommand") != op["check"]:
        return f"subcommand {doc.get('subcommand')!r} != {op['check']!r}"
    return _CHECKS[op["check"]](op, doc)
