"""Pin the bytes of the CLI's help and of its usage errors.

Each help digest covers one call's exit code, stdout and stderr, wrapped at
80 columns.  argparse lays out usage lines differently from Python 3.13 on,
so the digests are pinned for 3.10-3.12 and for 3.13 (measured on 3.10.13,
3.11.7, 3.12.1, 3.13.0 and 3.13.13) and skipped on a later Python.  A usage
error prints its verb's usage line, which the help digests pin, then one
message, which is pinned as text.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from dnagraph import cli

VERBS = ("gen", "label", "lift", "verify", "search", "iso", "sequence", "conjecture",
         "acceptance")
HELP = {"--help": ["--help"], **{f"{verb} --help": [verb, "--help"] for verb in VERBS}}

HELP_DIGESTS = {
    "--help": "c550c7c952fe9b5cca4f972eb6bc77aa575245373db7275395c9cc725a15f43f",
    "gen --help": "cb3b6a598b450c6f7737f6562eb45c946d678a15a640ec16e09e8fc6d1fa43cd",
    "label --help": "7b25510d1b0e3f37ed0596cc6ab6ba3da7ed89f23b9bec1363170a3e7d69aaf6",
    "lift --help": "092eefbe830ada96519fdf3a08e2917c33b948bb9cd85e26333e41f1b948deee",
    "verify --help": "f7836ef1bb695637ba0754eb4afcebebcda8d0947705c1d67ab77f791cc17d0f",
    "search --help": "2d005f0a5036ebe9fbcb04158b31d545ee524f3978e59b8f4fedca56d7cefdf0",
    "iso --help": "c969d1b580e1862a795226660e71bda4adad903ada32f2f7d03b25eb9196a5f3",
    "sequence --help": "492104ef9fa9cfb30888090cb4c453ad9a44f670f044ca25b32f1026f635843d",
    "conjecture --help": "aeac3d55523f84bb7249527d2476e89d129018a211ceb573b5a303e0c9736de9",
    "acceptance --help": "af840e0e8d9b01461e4bd75c38732fc621287f9ce9b39d1fe03dd95080da5520",
}
# 3.13 puts a choice list too long for the usage line on a line of its own
HELP_DIGESTS_3_13 = {
    **HELP_DIGESTS,
    "--help": "491f14c337a9179d844d7447a810d8c5d377d2f223ea0f4a1b7ee7501b863fa3",
    "gen --help": "27ccadcea9dc8227f0100820b5d525f7ba329edf00f782070fd0a773b01cf32f",
    "label --help": "13815cd4db459c1bc9d38075c40eb5caa8ac7aeec4c0518d91dae2f9a57d474a",
}

CONSTRUCTIONS = ("chorded-cycle", "double-cycle", "infinity-c3", "infinity-even",
                 "infinity-odd", "propeller3", "windmill")
INVALID_CHOICE = "dnagraph label: error: argument --construction: invalid choice: 'nope'"


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def usage(verb: str) -> str:
    """The usage lines at the head of verb's help."""
    out = run([verb, "--help"])[1]
    return out[:out.index("\n\n") + 1]


@pytest.mark.parametrize("case", HELP)
def test_help_bytes(case):
    if sys.version_info[:2] > (3, 13):
        pytest.skip("help digests are measured on Python 3.10 to 3.13")
    pinned = HELP_DIGESTS_3_13 if sys.version_info[:2] == (3, 13) else HELP_DIGESTS
    code, out, err = run(HELP[case])
    assert hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest() == pinned[case]


def test_invalid_choice_is_a_usage_error():
    code, out, err = run(["label", "--construction", "nope"])
    assert (code, out) == (2, "")
    # argparse quotes the choices in 3.13.0 and earlier, not in 3.13.13
    assert err in {usage("label") + f"{INVALID_CHOICE} (choose from {', '.join(choices)})\n"
                   for choices in (map(repr, CONSTRUCTIONS), CONSTRUCTIONS)}


def test_invalid_budget_is_a_usage_error():
    code, out, err = run(["search", "--budget", "abc"])
    assert (code, out) == (2, "")
    assert err == usage("search") + (
        "dnagraph search: error: argument --budget: invalid int value: 'abc'\n")
