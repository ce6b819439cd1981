"""`identity` and `compare` documents and failures, pinned.

`tests/data/identity_compare_md5.json` lists each command line with its
exit code and the md5 of its stdout (`--no-timestamp` zeroes the runtime
field); a failing command also pins its stderr and the numpy warnings in
the order they first appear. The commands are the identity and compare
operations of the benchmark's `anchor-mix` round at seed 1, five
integrands (`exp(t*s)`, the constant 1 and three of one variable) at
interior, edge and corner anchors, and integrands that fail: a domain
error or an overflow of f or of its mixed partial, and two guards that
fail in different parts of the rectangle, in the reverse of their order
in the expression. Speed work on the two-variable samplers must keep
every byte.
"""

import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ostrocube.cli import run_main

PINNED = json.loads((Path(__file__).parent / "data" / "identity_compare_md5.json").read_text())


def test_the_pins_cover_both_subcommands_and_failures():
    kinds = {(p["argv"][0], p["exit"]) for p in PINNED}
    assert kinds == {("identity", 0), ("identity", 1), ("compare", 0), ("compare", 1)}
    assert len(PINNED) > 150


@pytest.mark.parametrize("pin", PINNED, ids=[str(k) for k in range(len(PINNED))])
def test_identity_compare_digest(pin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run_main(pin["argv"])
    assert code == pin["exit"]
    assert hashlib.md5(out.getvalue().encode()).hexdigest() == pin["md5"]
    if code:
        assert err.getvalue() == pin["stderr"]
        assert list(dict.fromkeys(str(w.message) for w in caught)) == pin["warnings"]
