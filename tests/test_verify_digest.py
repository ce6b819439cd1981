"""Verify documents pinned by their md5.

Speed work on the samplers, the rules and the expression layer must keep
every bit of the audit. The 1000-trial digest is the byte-identity gate
for a full run (the goldens cover 200 trials); the 25-trial digests cover
the documents of the benchmark's `audit` workload, one seed for each
degree 3-6 and lambda 0, 0.6 and 1.0, pinned before the audit became an
array program over each chunk.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from ostrocube.cli import run_main

VERIFY_1000_SEED_42_MD5 = "835aedf0b597a820b1a81a31b57343f2"

# (degree, lambda, seed, md5 of `verify --trials 25 ... --json --no-timestamp`)
VERIFY_25_MD5 = (
    (3, "0", 7030, "0ae77b213444d07e642cc40b63de9585"),
    (3, "0.6", 7031, "bd7d638849dbaff1a507f32a57def5f7"),
    (3, "1.0", 7032, "a0a89609f62ae3b6da7cb11ec9eba45a"),
    (4, "0", 7040, "99c5674fd2a897e233d00c6a10316418"),
    (4, "0.6", 7041, "79a0e1e9d32bb91a585d8ef4053f2c16"),
    (4, "1.0", 7042, "e5e3bd3c161ca04768b49c2b21e9a508"),
    (5, "0", 7050, "c5aab539392fa47d49eaec53266eb618"),
    (5, "0.6", 7051, "10b5d8b5df5f73870e911b782e0d26b2"),
    (5, "1.0", 7052, "f6b5b308a8caffc09869e0ea06c851bb"),
    (6, "0", 7060, "515ddb42988e0081955a34b495ccbe00"),
    (6, "0.6", 7061, "9ca83cb9219381f6ff7b8221edb3f3e9"),
    (6, "1.0", 7062, "529d506c1ebafc3595b9bd66a1ab88f7"),
)


def _verify_md5(argv: list) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_main(["verify", *argv, "--json", "--no-timestamp"])
    assert code == 0
    return hashlib.md5(buf.getvalue().encode()).hexdigest()


def test_verify_1000_trials_seed_42_digest():
    assert _verify_md5(["--trials", "1000", "--seed", "42"]) == VERIFY_1000_SEED_42_MD5


@pytest.mark.parametrize("degree, lam, seed, md5", VERIFY_25_MD5)
def test_verify_25_trials_digest(degree, lam, seed, md5):
    assert _verify_md5(["--trials", "25", "--seed", str(seed), "--degree", str(degree),
                        "--lambda", lam]) == md5
