"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s`` or via ``grouporders report``)."""

import pytest

from grouporders import report


@pytest.mark.parametrize("criterion", report.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(criterion):
    result = criterion(report.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()


def test_budget_turns_a_slow_pass_into_a_failure():
    slow = report._timed(1, "slow", lambda: (True, "ran"), budget=0)
    assert not slow.passed and slow.detail == "ran; exceeded 0s budget"
    failed = report._timed(1, "failed", lambda: (False, "wrong"), budget=0)
    assert failed.detail == "wrong"
    unbounded = report._timed(1, "unbounded", lambda: (True, "ran"))
    assert unbounded.passed and unbounded.detail == "ran"
