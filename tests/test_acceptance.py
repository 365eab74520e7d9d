"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s`` or via ``grouporders report``)."""

import pytest

from grouporders import report

# each criterion's detail line at DEFAULT_SEED: the answers the suite keeps
DETAILS = {
    1: "200 random GL witnesses verified",
    2: "500 random cones, certificates verified both ways",
    3: "realize_flag agrees with the dichotomy on 500 sets",
    4: "homomorphism x200, ball-4 injectivity, ranks 2,1,2,3,6",
    5: "50 random IA products trivial at levels 1..4, as Lie powers and as words",
    6: "24 catalog witnesses verified (11 twisted)",
    7: "2628 pairs separated, 24 common roots, no cap failures",
    8: "10 random standard orderings pass all axioms at radius 3",
    9: "boundary certificates for every catalog automorphism",
    10: "4 verified orderings, Out(K) = Z/2 x Z/2, kernel ('1', 'a1')",
}


@pytest.mark.parametrize("criterion", report.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(criterion):
    result = criterion(report.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == DETAILS[result.number]


def test_budget_turns_a_slow_pass_into_a_failure():
    slow = report._timed(1, "slow", lambda: (True, "ran"), budget=0)
    assert not slow.passed and slow.detail == "ran; exceeded 0s budget"
    failed = report._timed(1, "failed", lambda: (False, "wrong"), budget=0)
    assert failed.detail == "wrong"
    unbounded = report._timed(1, "unbounded", lambda: (True, "ran"))
    assert unbounded.passed and unbounded.detail == "ran"
