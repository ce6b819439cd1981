"""The verify document for 1000 seeded trials, pinned by its md5.

Speed work on the samplers and the expression layer must keep every bit
of the audit; this digest is the byte-identity gate for the full
1000-trial run (the goldens cover 200 trials).
"""

import hashlib
import io
from contextlib import redirect_stdout

from ostrocube.cli import run_main

VERIFY_1000_SEED_42_MD5 = "835aedf0b597a820b1a81a31b57343f2"


def test_verify_1000_trials_seed_42_digest():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_main(["verify", "--trials", "1000", "--seed", "42", "--json",
                         "--no-timestamp"])
    assert code == 0
    assert hashlib.md5(buf.getvalue().encode()).hexdigest() == VERIFY_1000_SEED_42_MD5
