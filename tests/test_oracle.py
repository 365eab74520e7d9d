"""Word arithmetic and series against the independent reference in ``bench/oracle.py``.

The library builds products, inverses, powers, conjugates, roots, ball
words and endomorphism images without re-validating them; each property
compares such a word with the oracle's letters and with the same letters
sent through the validating constructor ``Word(rank, letters)``.  The
in-place series expansion is compared with the oracle's dict-rebuilding
one, and leading coordinates with the oracle's reconstruction.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouporders.errors import DepthExceedsCap
from grouporders.hall import leading_coords
from grouporders.series import magnus, magnus_part
from grouporders.words import (Endomorphism, Word, ball_words, common_power, primitive_root,
                               word)

_spec = importlib.util.spec_from_file_location(
    "grouporders_bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _validated(w: Word) -> Word:
    """w, after checking that the validating constructor accepts its letters."""
    assert type(w.letters) is tuple and all(type(x) is int for x in w.letters)
    assert Word(w.rank, w.letters) == w
    return w


@st.composite
def _reduced(draw, rank, max_len=12):
    """A freely reduced letter tuple of length 0..max_len."""
    letters = []
    for x in draw(st.lists(st.integers(1, rank) | st.integers(-rank, -1), max_size=max_len)):
        letters.append(-x if letters and letters[-1] == -x else x)
    return tuple(letters)


@st.composite
def _rank_and(draw, *shapes):
    """A rank in 1..3 and one reduced tuple per shape, each of at most that length."""
    rank = draw(st.integers(1, 3))
    return (rank, *(draw(_reduced(rank, n)) for n in shapes))


@st.composite
def _powers_of_one_root(draw):
    """rank, c h^m c^-1 and c h^n c^-1 for drawn c, h, m, n, or a second word
    drawn freely; both nonempty and of length <= 12."""
    rank, c, h = draw(_rank_and(3, 3))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    g = oracle.reduce_letters(c + h * m + oracle.inverse(c))
    k = oracle.reduce_letters(c + h * n + oracle.inverse(c)) if draw(st.booleans()) \
        else draw(_reduced(rank))
    assume(g and k)
    return rank, g, k


@settings(max_examples=200, deadline=None)
@given(_rank_and(6, 6, 6))
def test_product_cancels_exactly_at_the_seam(case):
    rank, u, v, seam = case
    # a ends in seam and b starts with its inverse, so long seams are common
    a = oracle.reduce_letters(u + seam)
    b = oracle.reduce_letters(oracle.inverse(seam) + v)
    for left, right in ((a, b), (b, a), (a, a), (a, oracle.inverse(a))):
        product = _validated(Word(rank, left) * Word(rank, right))
        assert product.letters == oracle.reduce_letters(left + right)


@settings(max_examples=200, deadline=None)
@given(_rank_and(12, 4), st.integers(-3, 3))
def test_inverse_conjugate_and_powers_agree_with_the_oracle(case, n):
    rank, letters, c = case
    w = Word(rank, letters)
    assert _validated(w.inverse()).letters == oracle.inverse(letters)
    assert _validated(w.conjugate_by(Word(rank, c))).letters == \
        oracle.reduce_letters(c + letters + oracle.inverse(c))
    expected = oracle.power(letters, n) if n >= 0 else oracle.power(oracle.inverse(letters), -n)
    assert _validated(w ** n).letters == expected
    core, conj = w.cyclic_reduce()
    assert _validated(conj * _validated(core) * conj.inverse()) == w


@settings(max_examples=200, deadline=None)
@given(_rank_and(12, 4, 4, 4))
def test_endomorphism_images_agree_with_substitution(case):
    rank, letters, *images = case
    images = images[:rank]
    phi = Endomorphism(rank, tuple(Word(rank, image) for image in images))
    image = _validated(phi.apply(Word(rank, letters)))
    assert image.letters == oracle.substitute(images, letters)


@settings(max_examples=200, deadline=None)
@given(_powers_of_one_root())
def test_roots_and_common_powers_agree_with_the_oracle(case):
    rank, g, k = case
    decomposition = primitive_root(Word(rank, g))
    assert _validated(decomposition.root).letters == oracle.primitive_root(g)
    powers = common_power(Word(rank, g), Word(rank, k))
    assert (powers is None) == (oracle.primitive_root(g) != oracle.primitive_root(k))
    if powers is not None:
        a, b = powers
        assert oracle.power(g, a) == oracle.power(k, b)


@pytest.mark.parametrize("rank, radius", [(1, 5), (2, 3), (3, 2)])
def test_ball_words_agree_with_the_oracle(rank, radius):
    words = [_validated(w) for w in ball_words(rank, radius)]
    assert [w.letters for w in words] == oracle.ball(rank, radius)


@st.composite
def _word_and_cap(draw, max_blocks=6):
    """rank, a reduced word of generator powers x_i^e with |e| <= 4, so runs of
    inverse letters are common, often a commutator of two such words, and a
    cap in 1..7, at most 5 for rank-3 words of more than 12 letters."""
    rank = draw(st.integers(1, 3))
    blocks = st.lists(st.tuples(st.integers(1, rank), st.integers(-4, 4)), max_size=max_blocks)
    u, v = (tuple(x if e > 0 else -x for x, e in draw(blocks) for _ in range(abs(e)))
            for _ in range(2))
    w = word(rank, oracle.commutator(u, v) if draw(st.booleans()) else u)
    return rank, w, draw(st.integers(1, 7 if rank < 3 or len(w.letters) <= 12 else 5))


@settings(max_examples=300, deadline=None)
@given(_word_and_cap())
def test_magnus_agrees_with_the_oracle(case):
    _, w, cap = case
    assert dict(magnus(w, cap).coeffs) == oracle.magnus(w.letters, cap)


@settings(max_examples=200, deadline=None)
@given(_word_and_cap())
def test_one_degree_reader_matches_the_full_series(case):
    _, w, degree = case
    assert magnus_part(w, degree) == magnus(w, degree).graded_part(degree)


@settings(max_examples=200, deadline=None)
@given(_word_and_cap(max_blocks=4))
def test_leading_coords_agree_with_the_oracle(case):
    rank, w, cap = case
    assume(not w.is_identity())
    try:
        depth, coords = leading_coords(w, cap)
    except DepthExceedsCap:
        assert oracle.magnus(w.letters, cap) == {(): 1}
        return
    assert oracle.check_leading_coords(rank, w.letters, depth, coords) is None
