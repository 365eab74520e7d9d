import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouporders
from grouporders import exactlin, hall, stdord, znord
from grouporders.autact import common_power
from grouporders.errors import (CommonRoot, DepthCapExceeded, DepthExceedsCap,
                                DimensionMismatch, EmptyWord, GroupOrderError, InputError,
                                ParseError)
from grouporders.exactlin import dot, kernel_basis, vector
from grouporders.hall import decompose_lie, layer_rank, leading_coords
from grouporders.report import random_standard_ordering
from grouporders.series import magnus, magnus_part
from grouporders.stdord import (AxiomReport, StandardOrdering, TwistedOrdering, ball_distance,
                                compare, identity_levels, identity_ordering,
                                ordering_from_json, pullback, separate,
                                verify_cone_axioms)
from grouporders.words import (MAX_BALL_WORDS, ball_size, ball_words, commutator, generator,
                               parse_word, word)
from grouporders.znord import flag_sign, opposite, positive_ratio

LEX = identity_ordering(2, 5)


def test_sign_examples():
    assert LEX.sign(parse_word("x1", 2)) == 1
    assert LEX.sign(parse_word("x1^-1 x2", 2)) == -1
    assert LEX.sign(parse_word("x1 x2 x1^-1 x2^-1", 2)) == 1


def test_sign_rejects_identity_and_deep_words():
    with pytest.raises(EmptyWord):
        LEX.sign(parse_word("1", 2))
    shallow = identity_ordering(2, 1)
    with pytest.raises(DepthExceedsCap):
        shallow.sign(parse_word("x1 x2 x1^-1 x2^-1", 2))


def test_compare():
    x1 = parse_word("x1", 2)
    assert compare(LEX, x1, x1) == 0
    assert compare(LEX, x1, parse_word("x1 x2", 2)) == -1
    assert compare(LEX, parse_word("x1 x2", 2), x1) == 1


letters = st.integers(-2, 2).filter(lambda x: x != 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(letters, max_size=5), st.lists(letters, max_size=5))
def test_compare_antisymmetric(a, b):
    g, h = word(2, a), word(2, b)
    assert compare(LEX, g, h) == -compare(LEX, h, g)


def test_opposite_negates_every_sign():
    opp = LEX.opposite()
    for w in ball_words(2, 3):
        assert opp.sign(w) == -LEX.sign(w)


def test_rank_or_class_below_one_is_an_input_error():
    with pytest.raises(InputError, match="rank 0 is below 1"):
        identity_levels(0, 3)
    for data in ({"rank": 0, "class": 0, "levels": []},
                 {"rank": 2, "class": 0, "levels": []}):
        with pytest.raises(InputError, match="both must be at least 1"):
            ordering_from_json(data)


def test_pullback_concatenates_levels():
    levels = identity_levels(2, 5)
    assert pullback(levels[:2], levels[2:]).levels == levels


def test_pullback_quotient_data_decides_surviving_words():
    levels = identity_levels(2, 5)
    tail_a = levels[1:]
    tail_b = (opposite(levels[1]),) + levels[2:]
    s_a = pullback(levels[:1], tail_a)
    s_b = pullback(levels[:1], tail_b)
    for w in ball_words(2, 3):
        # whole ball has depth 1: the shared quotient level decides everything
        assert s_a.sign(w) == s_b.sign(w)
    t = commutator(generator(2, 1), generator(2, 2))
    assert s_a.sign(t) == 1 and s_b.sign(t) == -1


def test_cone_axioms_identity_ordering():
    result = verify_cone_axioms(LEX, 3)
    assert result.passed
    assert result.skipped_words == 0 and result.skipped_pairs == 0


def test_cone_axioms_random_orderings():
    rng = random.Random(7)
    for _ in range(3):
        ordering = random_standard_ordering(2, 5, rng)
        assert verify_cone_axioms(ordering, 3).passed


def test_separate_distinct_generators():
    ordering = separate(parse_word("x1", 2), parse_word("x2", 2))
    assert isinstance(ordering, StandardOrdering)
    first_row = ordering.levels[0].rows[0]
    assert first_row[0] > 0 > first_row[1]


def test_separate_common_root():
    with pytest.raises(CommonRoot) as info:
        separate(parse_word("x1^2", 2), parse_word("x1", 2))
    assert info.value.powers == (1, 2)


def test_separate_cyclic_rotation_needs_twist():
    g = parse_word("x1 x2", 2)
    k = parse_word("x2 x1", 2)
    ordering = separate(g, k)
    assert isinstance(ordering, TwistedOrdering)
    assert ordering.twist_degree == 2
    assert ordering.sign(g) == 1 and ordering.sign(k) == -1


def test_separate_conjugate_pair():
    g = parse_word("x2", 2)
    k = parse_word("x1 x2 x1^-1", 2)
    ordering = separate(k, g)
    assert ordering.sign(k) == 1 and ordering.sign(g) == -1


def test_separate_unequal_depths():
    g = parse_word("x1", 2)
    k = commutator(generator(2, 1), generator(2, 2))
    ordering = separate(g, k)
    assert isinstance(ordering, StandardOrdering)
    assert ordering.sign(g) == 1 and ordering.sign(k) == -1


def test_separate_deep_twist():
    # difference of the pair sits at depth 3: exercises the j = 2d + 1 twist
    g = parse_word("x1", 2)
    c3 = commutator(commutator(generator(2, 1), generator(2, 2)), generator(2, 2))
    k = g * c3
    ordering = separate(g, k)
    assert isinstance(ordering, TwistedOrdering)
    assert ordering.twist_degree == 3
    assert ordering.sign(g) == 1 and ordering.sign(k) == -1


def test_twisted_ordering_is_left_order_but_not_bi_invariant():
    ordering = separate(parse_word("x1 x2", 2), parse_word("x2 x1", 2))
    result = verify_cone_axioms(ordering, 3)
    assert result.left_order_ok
    assert not result.conjugation_ok
    # the counterexample is genuine: w and x w x^-1 get different signs
    _, w, x = result.counterexample
    w, x = parse_word(w, 2), parse_word(x, 2)
    assert ordering.sign(w.conjugate_by(x)) != ordering.sign(w)


def test_ball_distance_basics():
    assert ball_distance(LEX, LEX, 4) == 4
    assert ball_distance(LEX, LEX.opposite(), 4) == 0


def test_identity_levels_cache_is_bounded():
    maxsize = identity_levels.cache_info().maxsize
    assert maxsize is not None
    for rank in range(2, maxsize + 10):
        for cap in (1, 2):
            identity_levels(rank, cap)
    assert identity_levels.cache_info().currsize <= maxsize


def test_identity_levels_run_no_elimination(monkeypatch):
    # identity flags are full rank by construction: neither rref nor int_det runs
    def refuse(*args):
        raise AssertionError("an identity flag was checked")

    monkeypatch.setattr(exactlin, "rref", refuse)
    monkeypatch.setattr(znord, "int_det", refuse)
    levels = identity_levels.__wrapped__(3, 6)
    assert [f.rows for f in levels] == [
        tuple(map(vector, hall.identity_matrix(layer_rank(3, i)))) for i in range(1, 7)]


def test_radius_below_one_is_an_input_error():
    for radius in (0, -1):
        with pytest.raises(InputError):
            ball_distance(LEX, LEX, radius)
        with pytest.raises(InputError):
            verify_cone_axioms(LEX, radius)


def test_cone_axioms_refuse_a_ball_beyond_the_bound():
    # radius 4 stays allowed in ranks 2 and 3, and radius 6 in rank 2
    assert max(ball_size(3, 4), ball_size(2, 6)) <= MAX_BALL_WORDS < ball_size(2, 7)
    for radius in (7, 9, 10**9):
        with pytest.raises(InputError, match="holds more than"):
            verify_cone_axioms(LEX, radius)


def test_ball_distance_level_three_flip():
    # shortest depth-3 word in rank 2 has length 8 (checked exhaustively),
    # so flipping the level-3 flag is invisible through radius 7
    levels = list(identity_levels(2, 5))
    levels[2] = opposite(levels[2])
    flipped = StandardOrdering(2, 5, tuple(levels))
    assert ball_distance(LEX, flipped, 8) == 7


def _per_radius_ball_distance(o1, o2, r_max):
    """The per-radius rescan ball_distance ran before its single pass."""
    if o1.rank != o2.rank:
        raise DimensionMismatch("orderings live on different free groups")
    if r_max < 1:
        raise InputError(f"radius must be at least 1, got {r_max}")
    for r in range(1, r_max + 1):
        for w in ball_words(o1.rank, r):
            if len(w) < r:
                continue
            if o1.sign(w) != o2.sign(w):
                return r - 1
    return r_max


def _distance_outcome(fn, *args):
    try:
        return fn(*args)
    except GroupOrderError as exc:
        return type(exc), str(exc)


def test_ball_distance_matches_the_per_radius_rescan():
    twisted = [separate(parse_word(g, 2), parse_word(k, 2))
               for g, k in [("x1 x2", "x2 x1"), ("x2 x1", "x1 x2"),
                            ("x1 x2 x1", "x1^2 x2")]]
    assert all(isinstance(o, TwistedOrdering) for o in twisted)
    standard = [random_standard_ordering(2, cap, random.Random(seed))
                for seed, cap in [(0, 5), (1, 5), (2, 3), (3, 2), (4, 1)]]
    orderings = twisted + standard + [LEX, LEX.opposite(), identity_ordering(2, 1),
                                      identity_ordering(3, 3)]
    for o1, o2 in itertools.product(orderings, repeat=2):
        for r_max in (0, 1, 2, 4):
            assert _distance_outcome(ball_distance, o1, o2, r_max) == \
                _distance_outcome(_per_radius_ball_distance, o1, o2, r_max)
    shallow, deep = identity_ordering(2, 1), identity_ordering(2, 5)
    assert ball_distance(shallow, deep, 3) == 3
    with pytest.raises(DepthExceedsCap):
        ball_distance(shallow, deep, 4)
    assert _distance_outcome(ball_distance, shallow, deep, 4) == \
        _distance_outcome(_per_radius_ball_distance, shallow, deep, 4)


def test_ordering_json_round_trip():
    data = LEX.to_json()
    assert data["class"] == 5
    again = ordering_from_json(data)
    assert again == LEX
    twisted = separate(parse_word("x1 x2", 2), parse_word("x2 x1", 2))
    again = ordering_from_json(twisted.to_json())
    for w in ball_words(2, 3):
        assert again.sign(w) == twisted.sign(w)


@pytest.mark.parametrize("data", [
    {"rank": 2}, {"rank": 2, "class": 1, "levels": 5}, [1], '{"rank": 2}',
    {"kind": "twisted", "rank": 2, "class": 2, "levels": []},
    {"rank": 1, "class": 1, "levels": [{"rows": [["1/0"]]}]}])
def test_malformed_ordering_json_is_a_parse_error(data):
    with pytest.raises(ParseError, match="malformed ordering JSON"):
        ordering_from_json(data)


def test_sign_and_separation_checks_survive_optimisation():
    code = textwrap.dedent("""
        from grouporders import stdord
        from grouporders.errors import CertificateError
        from grouporders.words import parse_word
        if __debug__:
            raise SystemExit("not running under -O")
        x1, x2 = parse_word("x1", 2), parse_word("x2", 2)
        real_int_sign = stdord._int_sign
        stdord._int_sign = lambda flag, v: 0
        try:
            stdord.identity_ordering(2, 5).sign(x1)
        except CertificateError:
            pass
        else:
            raise SystemExit("the nonzero-sign check was dropped")
        stdord._int_sign = real_int_sign
        stdord.StandardOrdering.sign = lambda self, w: 1
        try:
            stdord.separate(x1, x2)
        except CertificateError:
            pass
        else:
            raise SystemExit("the separation check was dropped")
    """)
    path = [str(Path(grouporders.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def _compositions(total, min_part):
    """All ordered compositions of ``total`` into >= 2 parts >= min_part."""
    def rec(remaining, parts):
        if parts and remaining == 0:
            if len(parts) >= 2:
                yield tuple(parts)
            return
        for p in range(min_part, remaining + 1):
            parts.append(p)
            yield from rec(remaining - p, parts)
            parts.pop()
    yield from rec(total, [])


def _concat_products(parts):
    out = [{(): Fraction(1)}]
    for options in parts:
        new = []
        for acc in out:
            for opt in options:
                prod = {}
                for m1, c1 in acc.items():
                    for m2, c2 in opt.items():
                        prod[m1 + m2] = prod.get(m1 + m2, Fraction(0)) + c1 * c2
                new.append(prod)
        out = new
    return out


def _composition_twist_constraints(rank, d, u0, j):
    """Reference: concatenation products over every composition of j into
    parts >= d, with the degree-(d+1) factors sampled from three powers."""
    spans = {d: [stdord._lie_embedding(rank, d, u0)]}
    if d + 1 <= j - d:
        realizer = stdord._word_with_coords(rank, d, u0)
        samples = [{m: Fraction(c) for m, c in
                    magnus_part(realizer ** s, d + 1).items()}
                   for s in (1, 2, 3)]
        lie = [dict(stdord._lie_embedding(rank, d + 1, row))
               for row in hall.identity_matrix(layer_rank(rank, d + 1))]
        spans[d + 1] = lie + samples
    constraints = []
    for comp in _compositions(j, d):
        assert all(p in spans for p in comp)
        constraints.extend(_concat_products([spans[p] for p in comp]))
    return constraints


def _primitive_pivots(n):
    """Primitive level vectors of dimension n, most with negative entries."""
    pivots = {tuple(1 if i == 0 else 0 for i in range(n)),
              tuple(-1 if i == n - 1 else 0 for i in range(n)),
              tuple((-1) ** i * (i + 1) for i in range(n)),
              tuple(2 if i == 0 else -3 for i in range(n))}
    return sorted(pivots)


TWIST_CASES = [(r, d, u0, j) for r, d in itertools.product((2, 3), (1, 2))
               for j in range(d + 1, 2 * d + 2)
               for u0 in _primitive_pivots(layer_rank(r, d))]


@pytest.mark.parametrize("r,d,u0,j", TWIST_CASES, ids=[
    f"F{r}-d{d}-u{','.join(map(str, u0))}-j{j}" for r, d, u0, j in TWIST_CASES])
def test_twist_constraints_span_the_composition_reference(r, d, u0, j, monkeypatch):
    mons = tuple(itertools.product(range(1, r + 1), repeat=j))

    def rows(constraints):
        return [tuple(c.get(m, Fraction(0)) for m in mons) for c in constraints]

    closed = rows(stdord._twist_constraints(r, d, u0, j))
    reference = rows(_composition_twist_constraints(r, d, u0, j))
    assert exactlin.rank(closed) == exactlin.rank(reference) == \
        exactlin.rank(closed + reference)

    def twists(constraints_fn):
        monkeypatch.setattr(stdord, "_twist_constraints", constraints_fn)
        pivot = stdord._word_with_coords(r, d, u0)
        mu_j_pivot = magnus_part(pivot, j)
        out = []
        for b in hall.basis_layer(r, j)[:3]:
            z_part = magnus_part(hall.bracket_word(r, b), j)
            try:
                o = stdord.build_twisted(r, 5, d, u0, j, z_part, mu_j_pivot, Fraction(3))
                out.append((o.psi, o.alpha))
            except DepthCapExceeded as exc:
                out.append(str(exc))
        return out

    closed_form = stdord._twist_constraints
    assert twists(closed_form) == twists(_composition_twist_constraints)


# sha256 of build_twisted's psi and alpha, or its refusal, on the twist cases pinned
# below; a change is explained in CHANGES.md
TWIST_DIGEST = "41f3d2034e6aeb1819f5a7fab94c7ae1304cdd123956857c6d0128431dd5b9f2"


def _pinned_twist(*args) -> str:
    try:
        o = stdord.build_twisted(*args)
        return repr((o.psi, o.alpha))
    except GroupOrderError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_twists_on_the_twist_cases_are_pinned():
    """Brackets of degree j and seeded words' degree-j parts as z, some inside
    the constraint span, against each pivot of TWIST_CASES."""
    rng = random.Random(25)
    lines = []
    for r, d, u0, j in TWIST_CASES:
        mu_j_pivot = magnus_part(stdord._word_with_coords(r, d, u0), j)
        words = [hall.bracket_word(r, b) for b in hall.basis_layer(r, j)[:4]]
        for _ in range(4):
            short = [word(r, [rng.choice((-1, 1)) * rng.randint(1, r)
                              for _ in range(rng.randint(1, 3))]) for _ in range(2)]
            words.append(rng.choice((short[0] ** j, commutator(*short))))
        for w in words:
            z_part = magnus_part(w, j)
            sigma = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            lines.append(f"{r} {d} {u0} {j} {sorted(z_part.items())} {sigma} "
                         + _pinned_twist(r, 5, d, u0, j, z_part, mu_j_pivot, sigma))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TWIST_DIGEST


def _unmemoized_axioms(ordering, radius):
    """Reference: the axiom check signing every product and conjugate afresh."""
    rank = ordering.rank
    signs = {}
    report = AxiomReport(radius=radius, words_checked=0)
    words = list(ball_words(rank, radius))
    report.words_checked = len(words)
    for w in words:
        try:
            signs[w.letters] = ordering.sign(w)
        except DepthExceedsCap:
            report.skipped_words += 1
    for w in words:
        s = signs.get(w.letters)
        if s is None:
            continue
        if s not in (1, -1):
            report.totality_ok = False
            report.counterexample = report.counterexample or ("totality", str(w))
        s_inv = signs.get(w.inverse().letters)
        if s_inv is not None and s_inv != -s:
            report.antisymmetry_ok = False
            report.counterexample = report.counterexample or ("antisymmetry", str(w))
    positives = [w for w in words if signs.get(w.letters) == 1]
    for u in positives:
        for v in positives:
            p = u * v
            if p.is_identity():
                report.closure_ok = False
                report.counterexample = report.counterexample or ("closure", str(u), str(v))
                continue
            try:
                if ordering.sign(p) != 1:
                    report.closure_ok = False
                    report.counterexample = report.counterexample or \
                        ("closure", str(u), str(v))
            except DepthExceedsCap:
                report.skipped_pairs += 1
    for w in words:
        s = signs.get(w.letters)
        if s is None:
            continue
        for i in range(1, rank + 1):
            conj = w.conjugate_by(generator(rank, i))
            try:
                if ordering.sign(conj) != s:
                    report.conjugation_ok = False
                    report.counterexample = report.counterexample or \
                        ("conjugation", str(w), f"x{i}")
            except DepthExceedsCap:
                report.skipped_pairs += 1
    return report


def _tampered_twist(cap, psi):
    """The x1 x2 / x2 x1 twisted ordering, loaded from JSON, with another psi put in
    by ``dataclasses.replace``: from_json itself refuses such a psi."""
    data = separate(parse_word("x1 x2", 2), parse_word("x2 x1", 2), cap=cap).to_json()
    return dataclasses.replace(ordering_from_json(data), psi=psi)


def test_axiom_report_matches_unmemoized_loop():
    rng = random.Random(11)
    randoms = [(random_standard_ordering(2, 5, rng), 3) for _ in range(2)]
    randoms.append((random_standard_ordering(3, 3, rng), 2))
    for ordering, radius in randoms:
        assert verify_cone_axioms(ordering, radius) == _unmemoized_axioms(ordering, radius)
    # a psi that does not annihilate the twist constraints
    failing = _tampered_twist(5, [[[1, 2], "1"]])
    report = verify_cone_axioms(failing, 3)
    assert report.counterexample == ("antisymmetry", "x1 x2")
    assert report == _unmemoized_axioms(failing, 3)
    # at cap 2 some products of positives are invisible; several pairs give
    # the same product, and each pair counts
    deep = _tampered_twist(2, [[list(m), "1"] for m in ((1, 1), (1, 2), (2, 1), (2, 2))])
    report = verify_cone_axioms(deep, 4)
    assert report.skipped_pairs > 0
    assert report == _unmemoized_axioms(deep, 4)
    shallow = identity_ordering(2, 1)
    report = verify_cone_axioms(shallow, 4)
    assert report.skipped_words > 0
    assert report == _unmemoized_axioms(shallow, 4)
    # every product longer than the ball is undecided, and many pairs share
    # a product: each occurrence must count as one skipped pair
    short = _ShortWordsOnly(LEX, 3)
    report = verify_cone_axioms(short, 3)
    assert report.skipped_pairs > len({(u * v).letters for u, v in _positive_pairs(short, 3)
                                       if len(u * v) > 3})
    assert report == _unmemoized_axioms(short, 3)


class _ShortWordsOnly:
    """An ordering that, like a class cap, leaves some words undecided: here
    every word longer than ``length``."""

    def __init__(self, ordering, length):
        self.ordering, self.length, self.rank = ordering, length, ordering.rank

    def sign(self, w):
        if len(w) > self.length:
            raise DepthExceedsCap("longer than the decided words")
        return self.ordering.sign(w)


def _positive_pairs(ordering, radius):
    positives = [w for w in ball_words(ordering.rank, radius) if ordering.sign(w) == 1]
    return [(u, v) for u in positives for v in positives]


def _reference_twisted_sign(o, w):
    """TwistedOrdering.sign read the long way: a full-cap series, the kernel
    basis of U as the rows vanishing on U, and Fraction dot products."""
    if w.is_identity():
        raise EmptyWord("the identity has no sign")
    series = magnus(w, o.cap)
    depth = min((len(m) for m in series.coeffs if m), default=None)
    if depth is None:
        raise DepthExceedsCap(f"word not visible at class cap {o.cap}")
    d = o.pivot_level
    if depth < d:
        coords = decompose_lie(o.rank, depth, _graded(series, depth))
        return flag_sign(o.levels[depth - 1], coords)
    if depth == d:
        coords = decompose_lie(o.rank, d, _graded(series, d))
    else:
        coords = tuple(0 for _ in range(layer_rank(o.rank, d)))
    u = vector(o.pivot_coords)
    for row in kernel_basis([u]):
        value = dot(row, coords)
        if value != 0:
            return 1 if value > 0 else -1
    lead = next(i for i, x in enumerate(u) if x != 0)
    dual = tuple(1 / u[lead] if i == lead else Fraction(0) for i in range(len(u)))
    s = dot(dual, coords)
    part_j = _graded(series, o.twist_degree)
    rho = o.alpha * s + sum((c * part_j.get(m, 0) for m, c in o.psi), Fraction(0))
    if rho != 0:
        return 1 if rho > 0 else -1
    if s != 0:
        return 1 if s > 0 else -1
    coords = decompose_lie(o.rank, depth, _graded(series, depth))
    return flag_sign(o.levels[depth - 1], coords)


def _graded(series, degree):
    return {m: c for m, c in series.coeffs.items() if len(m) == degree}


@lru_cache(maxsize=None)
def _ball_twists():
    """The twisted orderings separate builds for matched-power pairs of the
    F_2 radius-3 and F_3 radius-2 balls."""
    found = []
    for rank, radius in ((2, 3), (3, 2)):
        words = list(ball_words(rank, radius))
        lead = {w.letters: leading_coords(w, 5) for w in words}
        for g, k in itertools.permutations(words, 2):
            (dg, ug), (dk, uk) = lead[g.letters], lead[k.letters]
            if dg == dk and positive_ratio(ug, uk) is not None and \
                    common_power(g, k) is None:
                found.append(separate(g, k))
    return tuple(found)


@lru_cache(maxsize=None)
def _named_twists():
    x1, x2 = generator(2, 1), generator(2, 2)
    c = commutator(x1, x2)
    return (
        separate(parse_word("x1^-1 x2", 2), parse_word("x2 x1^-1", 2)),  # U = (-1, 1)
        separate(x1, x1 * commutator(c, x2)),  # pivot level 1, twist degree 3
        separate(c, c * commutator(c, x1)),  # pivot level 2, twist degree 3
        _tampered_twist(5, [[[1, 2], "1"]]),
        _tampered_twist(2, [[list(m), "1"] for m in ((1, 1), (1, 2), (2, 1), (2, 2))]),
    )


def test_every_twisted_ordering_of_the_separate_digest_round_trips():
    # the twisted outcomes of tests/test_separate_outcomes.py; from_json re-derives
    # each one's twist constraints and finds psi annihilates them
    for o in _ball_twists():
        again = ordering_from_json(json.dumps(o.to_json()))
        assert isinstance(again, TwistedOrdering)
        assert again == o and again.to_json() == o.to_json()


@pytest.mark.parametrize("cap, psi", [
    (5, [[[1, 2], "1"]]), (2, [[list(m), "1"] for m in ((1, 1), (1, 2), (2, 1), (2, 2))])])
def test_a_loaded_psi_off_the_twist_constraints_is_refused(cap, psi):
    data = separate(parse_word("x1 x2", 2), parse_word("x2 x1", 2), cap=cap).to_json()
    data["psi"] = psi
    with pytest.raises(InputError, match="psi does not annihilate the twist constraints"):
        ordering_from_json(data)


def _deep_words(rank):
    """Iterated commutators of weight 2..6; weight 6 is invisible at cap 5."""
    out = [commutator(generator(rank, 1), generator(rank, 2))]
    for weight in range(3, 7):
        out.append(commutator(out[-1], generator(rank, 1 + weight % rank)))
    return out


@st.composite
def _ordering_and_word(draw):
    # draw indices: sampling the orderings themselves would hash each of them
    pool = draw(st.sampled_from((_named_twists, _ball_twists)))()
    o = pool[draw(st.integers(0, len(pool) - 1))]
    letter = st.integers(-o.rank, o.rank).filter(lambda x: x != 0)
    short = st.lists(letter, min_size=1, max_size=5).map(lambda ls: word(o.rank, ls))
    w = draw(st.one_of(
        st.lists(letter, min_size=1, max_size=10).map(lambda ls: word(o.rank, ls)),
        st.builds(commutator, short, short),
        st.builds(lambda a, b, c: commutator(commutator(a, b), c), short, short, short),
        st.sampled_from(_deep_words(o.rank)),
    ))
    return o, w


def _outcome(sign, o, w):
    try:
        return sign(o, w)
    except GroupOrderError as exc:
        return type(exc)


def test_named_twists_have_the_shapes_they_stand_for():
    shapes = [(o.pivot_level, o.twist_degree, o.pivot_coords[0] < 0, o.cap)
              for o in _named_twists()]
    assert shapes == [(1, 2, True, 5), (1, 3, False, 5), (2, 3, False, 5),
                      (1, 2, False, 5), (1, 2, False, 2)]
    assert len(_ball_twists()) == 136
    assert any(o.pivot_coords[0] < 0 for o in _ball_twists())


@settings(max_examples=400, deadline=None)
@given(_ordering_and_word())
def test_twisted_sign_matches_kernel_basis_reference(case):
    o, w = case
    assert _outcome(TwistedOrdering.sign, o, w) == _outcome(_reference_twisted_sign, o, w)
