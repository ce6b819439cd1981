"""Verify documents pinned by their md5.

Speed work on the samplers, the rules and the expression layer must keep
every bit of the audit. The 1000-trial digest is the byte-identity gate
for a full run (the goldens cover 200 trials); the 25-trial digests cover
the documents of the benchmark's `audit` workload, one seed for each
degree 3-6 and lambda 0, 0.6 and 1.0, pinned before the audit became an
array program over each chunk. The rule-subset digests cover the runs
whose sampled anchors and end values differ from a full audit's: t1
alone takes no end values of g, t4 alone samples only the anchor q, and
t3 and corrected only the anchor p.
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

# (rules, degree, seed, md5 of `verify --trials 150 --lambda 0.4 --rules ...
# --json --no-timestamp`)
VERIFY_RULES_MD5 = (
    ("t1", 0, 1, "cbd5b07ece66668e858e3fc27efa95f3"),
    ("t1", 0, 42, "1cabf88083ddcb85d3b42667db59de61"),
    ("t1", 3, 1, "88a9514f23a66d83ae1eea75ad311b48"),
    ("t1", 3, 42, "1c163db63df3163fac7f7008fc89b5f3"),
    ("t1", 6, 1, "0ba1a269aaa139516cfbd57f7edccce0"),
    ("t1", 6, 42, "1330d66299f6c1099a093209faf7dd76"),
    ("t2", 0, 1, "47b9acb73e001fc3cb8ab93e81a865c5"),
    ("t2", 0, 42, "ebca4a5a5fcf3532e702afa058d8bc66"),
    ("t2", 3, 1, "8744aaa710a84cc57c01c0cf8f690f8d"),
    ("t2", 3, 42, "b77e407bc63daf16120d84a08bd221cd"),
    ("t2", 6, 1, "467452f06b741b77fe85befb98899599"),
    ("t2", 6, 42, "e209c7f299c1e4d7b7bbe3d0a5b219c4"),
    ("t4", 0, 1, "99e07c5d5aafb88862ab0f75d5bda61f"),
    ("t4", 0, 42, "989c443d77d42cfad5d2bece5b69a6e5"),
    ("t4", 3, 1, "8af0a32145f6be3aefaa716dff177011"),
    ("t4", 3, 42, "4db25558f008305471e3cd576e2039f0"),
    ("t4", 6, 1, "1ee40a3166186f68b5b88e238d85b3cf"),
    ("t4", 6, 42, "8012839d1ec7f2466db62912902f07d3"),
    ("t1,t3", 0, 1, "3ae3839c9ff9971c73354f2bfbb6ce6d"),
    ("t1,t3", 0, 42, "fd0004b95256f14efbfd01b1c7223f88"),
    ("t1,t3", 3, 1, "3446940a74ce9114bcce87b109d39d6c"),
    ("t1,t3", 3, 42, "e3ad2ee9592e0e0c61bd2cb827757f7d"),
    ("t1,t3", 6, 1, "8fbe304381340bf06f67bbb98af4e4bd"),
    ("t1,t3", 6, 42, "9084b8bfc2ddf703dbdaaba001bd2e76"),
    ("t3,corrected", 0, 1, "6624f73b7e8533f425ceb6f44b62d0e9"),
    ("t3,corrected", 0, 42, "b7cb1d0a068134e5b8736a541e74be05"),
    ("t3,corrected", 3, 1, "2b885185eae0881dfd883b73dc7b538f"),
    ("t3,corrected", 3, 42, "f8f8e83890992804f0b849d369e59989"),
    ("t3,corrected", 6, 1, "b2916d0b7d5a6829a42991663c5a6375"),
    ("t3,corrected", 6, 42, "da860a014281b9f2531fda7b52185310"),
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


@pytest.mark.parametrize("rules, degree, seed, md5", VERIFY_RULES_MD5)
def test_verify_rule_subset_digest(rules, degree, seed, md5):
    assert _verify_md5(["--trials", "150", "--lambda", "0.4", "--rules", rules, "--degree",
                        str(degree), "--seed", str(seed)]) == md5
