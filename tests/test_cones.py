"""The cone answers: ``classify_cone``, ``realize_flag``, ``strict_separator``
and ``solve_inequalities``.

They are pinned on 400 small seeded sets (1-7 vectors in Z^1..Z^4) and 6
large ones (8-12 vectors in dimension 5-6); about half are pointed, and
about three in ten are given as "a/b" strings.  A change to any digest is
explained in CHANGES.md.  One set gives the same answers as ints, as
Fractions and as strings.
"""

import hashlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from grouporders.errors import GroupOrderError
from grouporders.exactlin import classify_cone, solve_inequalities, strict_separator, vector
from grouporders.znord import realize_flag

# sha256 of each function's outcomes, one line per seeded set
DIGESTS = {
    "classify_cone": "9e9512efa0f5475841b850fd4992fb2f0b4a7886cef90d3407cc485b4cfbc706",
    "realize_flag": "49d24233b3fbaa7baaac61c2913e1f669898a009b734306f394bc1247c8d3ec5",
    "strict_separator": "bbf1c899d768a14a3dc7d827a2c1f247163c7b028f1610f0d6ebf30c379d817f",
    "solve_inequalities": "bdc7a7d50201d9c61182ab01d749bacac7d3ce2d7b05dea517aefd00835e26d4",
}


def _pinned(f, *args) -> str:
    try:
        return repr(f(*args))
    except GroupOrderError as exc:
        return f"{type(exc).__name__}: {exc}"


def _seeded_cone_set(rng: random.Random, large: bool) -> list:
    """Nonzero vectors, as ints or as "a/b" strings; pointed about half the time,
    each vector then turned to the positive side of a drawn h."""
    n, m = (rng.randint(5, 6), rng.randint(8, 12)) if large else \
        (rng.randint(1, 4), rng.randint(1, 7))
    rational = rng.random() < 0.3

    def draw():
        while True:
            v = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rational
                 else Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if any(v):
                return v

    vs = [draw() for _ in range(m)]
    if rng.random() < 0.5:
        h = draw()
        for i, v in enumerate(vs):
            side = sum(a * b for a, b in zip(h, v))
            v = v if side > 0 else [-x for x in v] if side < 0 else [a + b for a, b in zip(v, h)]
            vs[i] = v if any(v) else h
    return [[f"{x.numerator}/{x.denominator}" if rational else int(x) for x in v] for v in vs]


def test_cone_answers_on_seeded_sets_are_pinned():
    rng = random.Random(27)
    lines = {name: [] for name in DIGESTS}
    for i in range(406):
        vs = _seeded_cone_set(rng, large=i >= 400)
        k = rng.randint(1, len(vs))  # pos = vs[:k], neg = vs[k:]
        rhs = [rng.randint(-2, 2) for _ in vs]
        lines["classify_cone"].append(f"{vs} {_pinned(classify_cone, vs)}")
        lines["realize_flag"].append(
            f"{vs} {_pinned(lambda: (f := realize_flag(vs)).rows + f._int_rows)}")
        if k < len(vs):
            lines["strict_separator"].append(
                f"{vs} {k} {_pinned(strict_separator, vs[:k], vs[k:])}")
        constraints = [(vector(v), b) for v, b in zip(vs, rhs)]
        lines["solve_inequalities"].append(
            f"{vs} {rhs} {_pinned(solve_inequalities, constraints, len(vs[0]))}")
    digests = {name: hashlib.sha256("\n".join(got).encode()).hexdigest()
               for name, got in lines.items()}
    assert digests == DIGESTS


_int_sets = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_int_sets, st.integers(1, 6))
def test_ints_fractions_and_strings_get_the_same_answers(vs, k):
    forms = [vs, [[Fraction(x) for x in v] for v in vs], [[str(x) for x in v] for v in vs]]
    answers = {(_pinned(classify_cone, given),
                _pinned(lambda: (f := realize_flag(given)).rows + f._int_rows),
                _pinned(strict_separator, given[:k], given[k:]))
               for given in forms}
    assert len(answers) == 1
