import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouporders.errors import NonAutomorphism, ParseError, RankMismatch
from grouporders.words import (MAX_WORD_LETTERS, Automorphism, Endomorphism, Word, ball_size,
                               ball_words, commutator, generator, identity_word,
                               inner_automorphism, parse_endomorphism, parse_word,
                               reduced_product, word)


def test_parse_and_format():
    w = parse_word("x1 x2^-1 x1^3", 2)
    assert w.letters == (1, -2, 1, 1, 1)
    assert str(w) == "x1 x2^-1 x1^3"
    assert parse_word("1", 2).is_identity()


def test_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse_word("x1 y2", 2)
    with pytest.raises(ParseError):
        parse_word("x0", 2)


def test_free_reduction():
    assert word(2, [1, -1]).is_identity()
    assert word(2, [1, 2, -2, -1, 2]).letters == (2,)


def test_inverse_and_power():
    w = parse_word("x1 x2", 2)
    assert (w * w.inverse()).is_identity()
    assert (w ** 3).letters == (1, 2, 1, 2, 1, 2)
    assert (w ** -2) == (w.inverse()) ** 2


def test_cyclic_reduce():
    w = parse_word("x2^-1 x1^3 x2", 2)
    core, conj = w.cyclic_reduce()
    assert core.letters == (1, 1, 1)
    assert conj * core * conj.inverse() == w


letters = st.integers(-2, 2).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=8)


@settings(max_examples=100, deadline=None)
@given(raw_words, raw_words)
def test_multiplication_associative_via_reduction(a, b):
    u, v = word(2, a), word(2, b)
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=200, deadline=None)
@given(raw_words, raw_words, raw_words)
def test_reduced_product_matches_reducing_the_concatenation(a, c, b):
    # u ends in c and v starts with c^-1, so most seams cancel
    u = word(2, a + c)
    v = word(2, [-x for x in reversed(c)] + b)
    assert reduced_product(u.letters, v.letters) == word(2, u.letters + v.letters).letters


# c u c^-1 before reduction, so many draws are not cyclically reduced
conjugated_words = st.tuples(raw_words, raw_words).map(
    lambda cu: word(2, cu[0] + cu[1] + [-x for x in reversed(cu[0])]))


def _repeated_power(w: Word, n: int) -> Word:
    base = w if n >= 0 else w.inverse()
    result = identity_word(w.rank)
    for _ in range(abs(n)):
        result = result * base
    return result


def _stripping_cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Reference: strip one inverse pair of end letters per step."""
    letters = list(w.letters)
    prefix: list[int] = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        prefix.append(letters[0])
        letters = letters[1:-1]
    return Word(w.rank, tuple(letters)), word(w.rank, prefix)


@settings(max_examples=200, deadline=None)
@given(conjugated_words, st.integers(-6, 6))
def test_closed_form_power_matches_repeated_products(w, n):
    assert w ** n == _repeated_power(w, n)
    assert w.cyclic_reduce() == _stripping_cyclic_reduce(w)


def test_apply_examples():
    phi = parse_endomorphism("x1 -> x1 x2 ; x2 -> x2", 2)
    assert phi.apply(parse_word("x1^-1", 2)) == parse_word("x2^-1 x1^-1", 2)
    assert Endomorphism.identity(2).apply(parse_word("x1 x2", 2)) == parse_word("x1 x2", 2)


def test_apply_rank_mismatch():
    phi = Endomorphism.identity(2)
    with pytest.raises(RankMismatch):
        phi.apply(parse_word("x3", 3))


@settings(max_examples=60, deadline=None)
@given(raw_words)
def test_composition_law(ls):
    w = word(2, ls)
    phi = parse_endomorphism("x1 -> x1 x2", 2)
    psi = parse_endomorphism("x1 -> x2 ; x2 -> x1", 2)
    assert phi.compose(psi).apply(w) == phi.apply(psi.apply(w))


@pytest.mark.parametrize("text,rank,generator_name", [
    ("x1 -> x1 x2 ; x3 -> x3 x1", 2, "x3"), ("x3 -> x1", 2, "x3"),
    ("x0 -> x1", None, "x0"), ("x1 -> x1", 0, "x1")])
def test_parse_endomorphism_rejects_a_clause_beyond_the_rank(text, rank, generator_name):
    with pytest.raises(ParseError, match=f"{generator_name} lies outside rank"):
        parse_endomorphism(text, rank)


def test_automorphism_validates_inverse():
    with pytest.raises(NonAutomorphism):
        Automorphism(parse_endomorphism("x1 -> x1 x2", 2),
                     parse_endomorphism("x1 -> x1 x2", 2))
    with pytest.raises(RankMismatch):
        Automorphism(Endomorphism.identity(2), Endomorphism.identity(3))
    aut = inner_automorphism(parse_word("x1 x2", 2))
    w = parse_word("x2 x1^-1", 2)
    assert aut.inverse.apply(aut.apply(w)) == w


def test_ball_word_counts():
    # 4 length-1, 12 length-2, 36 length-3 reduced words in rank 2
    assert len(list(ball_words(2, 3))) == 52
    first = list(ball_words(2, 2))[:5]
    assert [w.letters for w in first] == [(1,), (-1,), (2,), (-2,), (1, 1)]


def test_commutator_shape():
    t = commutator(generator(2, 1), generator(2, 2))
    assert t.letters == (1, 2, -1, -2)
    assert commutator(generator(2, 1), generator(2, 1)).is_identity()


def test_identity_word_is_neutral():
    w = parse_word("x1 x2^2", 2)
    assert identity_word(2) * w == w == w * identity_word(2)


def test_parse_word_bounds_the_letter_count():
    w = parse_word("x1^600000 x2^400000")
    assert len(w) == MAX_WORD_LETTERS == 10**6
    with pytest.raises(ParseError, match="longer than 1000000 letters at 'x1'"):
        parse_word("x1^600000 x2^400000 x1")
    with pytest.raises(ParseError, match="longer than"):
        parse_word("x2 x1^-1000000000000", 2)


@pytest.mark.parametrize("letters", [(1, -1), (3,), (0,), (2, 1, -1, 2), json.loads("[1, -1]")])
def test_word_constructor_validates(letters):
    with pytest.raises(ParseError):
        Word(2, letters)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ball_size_counts_the_ball(rank):
    for radius in range(5):
        assert ball_size(rank, radius) == len(list(ball_words(rank, radius)))
