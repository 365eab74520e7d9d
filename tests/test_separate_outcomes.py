"""Answer identity of ``separate`` on two whole balls.

Every ordered pair of distinct words in the F_2 radius-3 and F_3 radius-2
balls (2652 + 1260 = 3912 pairs) is separated at class cap 5.  Each outcome
is recorded as the ordering's sorted-key JSON, or as the exception's class,
message, ``root`` and ``powers``; the digest of all outcomes is pinned, so a
change to the separation route, the flags it builds or the order in which it
raises shows up here even when every answer still verifies.
"""

import hashlib
import json

import pytest

from grouporders.errors import GroupOrderError
from grouporders.stdord import separate
from grouporders.words import ball_words, parse_word

BALLS = ((2, 3), (3, 2))  # (rank, radius)
CAP = 5
PAIRS = 3912
DIGEST = "e303e1941e1e10901aee14d70dc3aaf4d1baf092d63832e8bcd7310ae18cb321"


def _outcome_at(g, k, cap) -> str:
    try:
        ordering = separate(g, k, cap)
    except GroupOrderError as exc:
        root = getattr(exc, "root", None)
        return json.dumps([type(exc).__name__, str(exc),
                           None if root is None else list(root.letters),
                           getattr(exc, "powers", None)])
    return json.dumps(ordering.to_json(), sort_keys=True)


def test_separate_outcomes_on_two_balls_are_pinned():
    digest = hashlib.sha256()
    pairs = 0
    for rank, radius in BALLS:
        words = list(ball_words(rank, radius))
        for g in words:
            for k in words:
                if g != k:
                    digest.update(f"{g.letters} {k.letters} {_outcome_at(g, k, CAP)}\n".encode())
                    pairs += 1
    assert pairs == PAIRS
    assert digest.hexdigest() == DIGEST


COMMUTATOR = "x1 x2 x1^-1 x2^-1"


@pytest.mark.parametrize("g, k, cap, expected", [
    # a shared root invisible at the cap is still a common root
    (COMMUTATOR, f"{COMMUTATOR} {COMMUTATOR}", 1,
     '["CommonRoot", "both words are positive powers of x1 x2 x1^-1 x2^-1", '
     '[1, 2, -1, -2], [2, 1]]'),
    (COMMUTATOR, "x1 x2^-1 x1^-1 x2", 1,
     '["DepthCapExceeded", "word deeper than class cap 1", null, null]'),
    # a shared root needing exponents beyond POWER_BOUND is still a common root
    ("x1^65", "x1^64", CAP,
     '["CommonRoot", "both words are positive powers of x1", [1], [64, 65]]'),
    ("x1^65 x2 x1 x2^-1 x1^-1", "x1", CAP,
     '["DepthCapExceeded", "power matching needs exponents beyond 64", null, null]'),
    ("x2 x1^3 x2^-1", "x2 x1^2 x2^-1", CAP,
     '["CommonRoot", "both words are positive powers of x2 x1 x2^-1", [2, 1, -2], [2, 3]]'),
])
def test_separate_raises_as_before_at_the_edges(g, k, cap, expected):
    assert _outcome_at(parse_word(g, 2), parse_word(k, 2), cap) == expected
