"""Composite `enclose` documents and failures, pinned.

The golden enclose document is a single cell with an empty
`per_cell_width`; these digests pin whole grids (every cell's width) at
8 x 8, 24 x 24 and 64 x 64, with given and with sampled (`auto`) bounds.
Speed work on the samplers and the expression layer must keep every bit.
The failing commands pin what a user sees when a sample leaves the domain
or overflows: the message, the exit code and the numpy warnings, in the
order they first appear (their file and line are not pinned).
"""

import hashlib
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ostrocube.cli import run_main

_UNIT = ["--rect", "0", "1", "0", "1"]
# a polynomial on a rectangle that straddles both axes
_POLY = ["--f", "0.7*t*s - 0.4*t^2*s + 0.3*t*s^3 - 0.9*t^2*s^2 + 0.5*t^3",
         "--rect", "-0.25", "0.75", "-0.3", "0.9"]
_INTEGRANDS = {
    "exp": (["--f", "exp(t*s)", *_UNIT], ["1", "6"]),
    "sincos": (["--f", "sin(t)*cos(s)", *_UNIT], ["-1", "1"]),
    "log": (["--f", "log(2+t+s)*t", *_UNIT], ["-1", "1"]),
    "poly": (_POLY, ["-5", "5"]),
}

ENCLOSE_MD5 = {
    "exp-8-given": "c8957bdb51cfe3c9a872443ab8502d21",
    "exp-8-auto": "577888bb1891f5c45842dbfeafccff71",
    "exp-24-given": "65d97f6786c841b1c8a27ed184c1c1b8",
    "exp-24-auto": "626c2406d28aef0fe10e303376ae4d07",
    "exp-64-given": "18a329ff92f459600d163c58f27ce138",
    "exp-64-auto": "1cc41f61330a6f43995205e56fcf992c",
    "log-8-given": "a720b6d578b42700ae804ac4cf0e13ce",
    "log-8-auto": "cddaed5a17545a11e1b765a64b8339e0",
    "log-24-given": "88a851095fc4e366097e0e5f1bd0f11c",
    "log-24-auto": "c7d3bcd6bf47586b821cae50c12c9572",
    "log-64-given": "b516b1f3b4a6a232b4955dad4a6bcaa7",
    "log-64-auto": "3718e13bef2b8b7fba4c9cc0bdfdf342",
    "poly-8-given": "3b9d28578924bf9104e7d2443fe4a6ea",
    "poly-8-auto": "579ff8d9a6e2c98caec64d75b506631c",
    "poly-24-given": "45814c64a01b01f173d629ec8826c144",
    "poly-24-auto": "c03b61a9d7ed84029ba7310755e1fb38",
    "poly-64-given": "fe344899876f9d423980b34b594c9980",
    "poly-64-auto": "5b8fe51daa8f6c9bd8aafff24809f1b9",
    "sincos-8-given": "b419dca24267fb7178f41cfbd856e1ee",
    "sincos-8-auto": "3e9bd06eadf776c7436e61e3ba245064",
    "sincos-24-given": "07ca8a6f4c5b0eeb9c7484cc3ea32180",
    "sincos-24-auto": "c5c4e2c749e64cd0bd61da82e31bad00",
    "sincos-64-given": "bab1396e948e3639bf5a815971fe9787",
    "sincos-64-auto": "5ca1b1d21630073306610ebd86bf582e",
}


def _document(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("key", sorted(ENCLOSE_MD5))
def test_composite_enclose_digest(key):
    name, m, bounds = key.split("-")
    args, given = _INTEGRANDS[name]
    argv = ["enclose", *args, "--bounds", *(given if bounds == "given" else ["auto"]),
            "--subdivide", m, m, "--json", "--no-timestamp"]
    code, out = _document(argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == ENCLOSE_MD5[key]


# text mode prints the widths with json.dumps of the whole list
TEXT_MD5 = {
    "sincos-8-given": "8e516227cb100fc533b18ec30be0e1b7",
    "exp-24-auto": "cb312b91d7fe7d24c8605c7f0558ee5f",
}


@pytest.mark.parametrize("key", sorted(TEXT_MD5))
def test_composite_enclose_text_digest(key):
    name, m, bounds = key.split("-")
    args, given = _INTEGRANDS[name]
    argv = ["enclose", *args, "--bounds", *(given if bounds == "given" else ["auto"]),
            "--subdivide", m, m, "--no-timestamp"]
    code, out = _document(argv)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == TEXT_MD5[key]


_FAILURES = [
    ("sqrt(s-0.5)*log(t-0.5)", "-1 1",
     "sqrt of a negative value",
     []),
    ("sqrt(s-0.5)*log(t-0.5)", "auto",
     "sqrt of a negative value",
     []),
    ("log(t-0.5)*sqrt(s-0.5)", "-1 1",
     "log of a non-positive value",
     []),
    ("log(t-0.5)*sqrt(s-0.5)", "auto",
     "sqrt of a negative value",
     []),
    ("exp(900*s)*t", "-1 1",
     "1733 non-finite sample(s) while evaluating exp(900 * s) * t(0.0078125, .)",
     ['overflow encountered in exp', 'invalid value encountered in multiply']),
    ("exp(900*s)*t", "auto",
     "1751 non-finite sample(s) while evaluating mixed partial of exp(900 * s) * t",
     ['overflow encountered in exp', 'overflow encountered in multiply']),
    ("t*exp(900*s)+log(t+1)", "-1 1",
     "1733 non-finite sample(s) while evaluating t * exp(900 * s) + log(t + 1)(0.0078125, .)",
     ['overflow encountered in exp', 'invalid value encountered in multiply']),
    ("t*exp(900*s)+log(t+1)", "auto",
     "1751 non-finite sample(s) while evaluating mixed partial of t * exp(900 * s) + log(t + 1)",
     ['overflow encountered in exp', 'overflow encountered in multiply']),
    # a domain error only between the grid points: the lines fail, t-lines
    # first, then s-lines
    ("t*log(0.5+sin(128*pi*s))", "-1 1", "log of a non-positive value", []),
    ("log(0.5+sin(128*pi*t))*s", "-1 1", "log of a non-positive value", []),
]


@pytest.mark.parametrize("text,bounds,message,warned", _FAILURES)
def test_failing_enclose_message_and_warnings(text, bounds, message, warned, capsys):
    argv = ["enclose", "--f", text, *_UNIT, "--bounds", *bounds.split(),
            "--subdivide", "64", "64", "--json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {message}\n"
    assert list(dict.fromkeys(str(w.message) for w in caught)) == warned


# Whole invocations, pinned as the md5 of the exit code, stdout, stderr and
# the numpy warnings in the order they first appear: line integrals and
# sampled bounds on grids of 24-96 cells, sampled bounds on the exp-log
# partial of a variable exponent (`t^s`), a non-finite count on each path,
# and a domain error.
_INVOCATIONS = {
    "log-48-auto": (["--f", "log(2+t+s)*t", *_UNIT, "--bounds", "auto",
                     "--subdivide", "48", "48"], "95231b4769a8495a08d3269932319ec8"),
    "exp-32-given": (["--f", "exp(t*s)", *_UNIT, "--bounds", "1", "6",
                      "--subdivide", "32", "32"], "e2fe04641bfa74c7e9a23446575f5c87"),
    "pow-24-auto": (["--f", "t^s", "--rect", "0.1", "1", "0.1", "1", "--bounds", "auto",
                     "--subdivide", "24", "24"], "35b732baa00a741012b897d322c626f9"),
    "overflow-96-given": (["--f", "exp(800*t)*(s+1)", *_UNIT, "--bounds", "-5", "5",
                           "--subdivide", "96", "96"], "07d607baffd71a5d57c6afedaf067761"),
    "overflow-48-auto": (["--f", "exp(800*t)*(s+1)", *_UNIT, "--bounds", "auto",
                          "--subdivide", "48", "48"], "8fa7fdd71574c67952dfcccda6903e96"),
    "logdomain-32-given": (["--f", "log(t-0.3)*s", *_UNIT, "--bounds", "-1", "1",
                            "--subdivide", "32", "32"], "89502351e6b9718575ad3144bf060cc1"),
    "logdomain-32-auto": (["--f", "log(t-0.3)*s", *_UNIT, "--bounds", "auto",
                           "--subdivide", "32", "32"], "89502351e6b9718575ad3144bf060cc1"),
}


def invocation_digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = run_main(argv)
    seen = list(dict.fromkeys(str(w.message) for w in caught))
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n{seen}"
    return hashlib.md5(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(_INVOCATIONS))
def test_enclose_invocation_digest(key):
    args, md5 = _INVOCATIONS[key]
    assert invocation_digest(["enclose", *args, "--json", "--no-timestamp"]) == md5


def test_the_variable_exponent_grid_holds_the_integral():
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_main(["enclose", *_INVOCATIONS["pow-24-auto"][0], "--json"]) == 0
    enclosure = json.loads(out.getvalue())["results"]["enclosure"]
    # the integral of t^s over [0.1, 1]^2, by mpmath
    assert enclosure["lo"] <= 0.5758058259742863 <= enclosure["hi"]
