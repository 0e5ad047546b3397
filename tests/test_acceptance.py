"""Acceptance gate: every contract criterion runs at its stated tolerance.

Each case prints one PASS line (visible with -v or -s); a failure carries
the criterion's own diagnosis.
"""

import pytest

from dnagraph import acceptance
from dnagraph.acceptance import CRITERIA, Criterion


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.ident for c in CRITERIA])
def test_criterion(criterion):
    detail = criterion.run()
    print(f"PASS {criterion.ident}: {criterion.summary} ({detail})")


def test_run_all_reports_pass_and_fail(monkeypatch):
    # test_criterion runs every real criterion; here run_all is checked on stubs
    def broken():
        raise AssertionError("stub diagnosis")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        Criterion("stub-pass", "always passes", lambda: "fine"),
        Criterion("stub-fail", "always fails", broken),
    ))
    lines = []
    assert acceptance.run_all(write=lines.append) is False
    assert [line.split()[:2] for line in lines] == [["PASS", "stub-pass"], ["FAIL", "stub-fail"]]
    assert lines[0].endswith("(fine)") and lines[1].endswith("[stub diagnosis]")
