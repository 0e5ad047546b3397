"""Acceptance gate: every contract criterion runs at its stated tolerance.

Each case prints one PASS line (visible with -v or -s); a failure carries
the criterion's own diagnosis.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dnagraph import ConstructionFailure, acceptance, cli
from dnagraph.acceptance import CRITERIA, Criterion


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.ident for c in CRITERIA])
def test_criterion(criterion):
    detail = criterion.run()
    print(f"PASS {criterion.ident}: {criterion.summary} ({detail})")


def test_run_all_reports_pass_and_fail(monkeypatch):
    # test_criterion runs every real criterion; here run_all is checked on stubs
    def broken():
        raise AssertionError("stub diagnosis")

    def library_bug():
        raise ConstructionFailure("stub library bug")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        Criterion("stub-pass", "always passes", lambda: "fine"),
        Criterion("stub-fail", "always fails", broken),
        Criterion("stub-bug", "raises a library error", library_bug),
        Criterion("stub-after", "runs after the library error", lambda: "still run"),
    ))
    lines = []
    assert acceptance.run_all(write=lines.append) is False
    assert [line.split()[:2] for line in lines] == [["PASS", "stub-pass"], ["FAIL", "stub-fail"],
                                                    ["FAIL", "stub-bug"], ["PASS", "stub-after"]]
    assert lines[0].endswith("(fine)") and lines[1].endswith("[stub diagnosis]")
    assert lines[2].endswith("[stub library bug]") and lines[3].endswith("(still run)")


def test_a_library_error_fails_its_criterion_and_the_rest_run(corrupt_trusted_labelings):
    # under this fixture every labeling built from codes is corrupt, so a
    # self-check or a criterion's own check fails in every criterion but
    # ladder-iso, which builds no labeling
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["acceptance"], out=out, err=err) == 1
    lines = out.getvalue().splitlines()
    assert [line.split()[1] for line in lines] == [c.ident for c in CRITERIA]
    assert [line.split()[0] for line in lines].count("PASS") == 1
    assert err.getvalue() == ""


def test_checks_run_under_optimize():
    # python -O drops assert statements; a criterion's checks must still fail
    script = ("import dnagraph.acceptance as acc\n"
              "acc.find_quasi_violation = lambda d, lab: 'stub violation'\n"
              "acc.run_all(only='chorded-rows')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.startswith("FAIL  chorded-rows ")
    assert proc.stdout.endswith(" [quasi fails at n=6]\n")
