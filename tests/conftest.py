"""Collects acceptance-criterion outcomes and prints one line per criterion
in the terminal summary, followed by the known misses that the containment
sweep (test_containment.py) records."""

from __future__ import annotations

import pytest

_RESULTS: dict[int, tuple[str, str]] = {}
_EXPECTED: dict[int, str] = {}
_CONTAINMENT: list[str] = []


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker:
            num, label = marker.args
            _EXPECTED[num] = label


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        _CONTAINMENT.extend(line for name, lines in rep.user_properties
                            if name == "containment" for line in lines)
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    if rep.when == "call":
        _RESULTS[num] = (label, "PASS" if rep.passed else "FAIL")
    elif rep.when == "setup" and not rep.passed:
        _RESULTS[num] = (label, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _EXPECTED:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(_EXPECTED):
            label, status = _RESULTS.get(num, (_EXPECTED[num], "NOT RUN"))
            terminalreporter.write_line(f"criterion {num}: {status} - {label}")
    if _CONTAINMENT:
        terminalreporter.write_sep("=", "containment sweep")
        for line in _CONTAINMENT:
            terminalreporter.write_line(line)
