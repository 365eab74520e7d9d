"""Word arithmetic and series against the independent reference in ``bench/oracle.py``.

The library builds products, inverses, powers, conjugates, roots, ball
words and endomorphism images without re-validating them; each property
compares such a word with the oracle's letters and with the same letters
sent through the validating constructor ``Word(rank, letters)``.  The
in-place series expansion is compared with the oracle's dict-rebuilding
one, and leading coordinates with the oracle's reconstruction.  Separating
orderings, cone certificates and Klein bottle products and pulls are
checked with the oracle's own flag signs, certificate checks and normal
forms; twisted orderings, which the oracle cannot sign, keep the
references in ``tests/test_stdord.py``.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouporders.errors import CommonRoot, DepthCapExceeded, DepthExceedsCap, NoSeparator
from grouporders.exactlin import Halfspace, classify_cone, strict_separator
from grouporders.hall import leading_coords
from grouporders.klein import KleinAut, KleinElement, k_enumerate_orderings, k_pull
from grouporders.series import magnus, magnus_part
from grouporders.stdord import StandardOrdering, separate
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
def _reduced(draw, rank, max_len=12, min_len=0):
    """A freely reduced letter tuple of length min_len..max_len."""
    letters = []
    for x in draw(st.lists(st.integers(1, rank) | st.integers(-rank, -1),
                           min_size=min_len, max_size=max_len)):
        letters.append(-x if letters and letters[-1] == -x else x)
    return tuple(letters)


@st.composite
def _rank_and(draw, *shapes):
    """A rank in 1..3 and one reduced tuple per shape, each of at most that length."""
    rank = draw(st.integers(1, 3))
    return (rank, *(draw(_reduced(rank, n)) for n in shapes))


@st.composite
def _powers_of_one_root(draw, min_rank=1, min_len=0):
    """rank in min_rank..3, c h^m c^-1 and c h^n c^-1 for drawn c, h, m, n, or a
    second word drawn freely; both nonempty and of length <= 12.  h and the
    free word have at least min_len letters."""
    rank = draw(st.integers(min_rank, 3))
    c, h = draw(_reduced(rank, 3)), draw(_reduced(rank, 3, min_len))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    g = oracle.reduce_letters(c + h * m + oracle.inverse(c))
    k = oracle.reduce_letters(c + h * n + oracle.inverse(c)) if draw(st.booleans()) \
        else draw(_reduced(rank, 12, min_len))
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
    full = magnus(w, degree).coeffs
    assert magnus_part(w, degree) == {m: c for m, c in full.items() if len(m) == degree}


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


@settings(max_examples=200, deadline=None)
# F_1 has no level-2 flag, so no class-5 ordering; an empty h gives an empty g
@given(_powers_of_one_root(min_rank=2, min_len=1))
def test_separate_signs_agree_with_the_oracle_flags(case):
    rank, g, k = case
    assume(g != k)
    common = oracle.primitive_root(g) == oracle.primitive_root(k)
    try:
        ordering = separate(Word(rank, g), Word(rank, k), 5)
    except CommonRoot:
        assert common
        return
    except DepthCapExceeded:
        assert not common
        return
    assert not common
    if not isinstance(ordering, StandardOrdering):
        return
    for letters, expected in ((g, 1), (k, -1)):
        depth, coords = leading_coords(Word(rank, letters), 5)
        assert oracle.check_leading_coords(rank, letters, depth, coords) is None
        rows = [oracle.integer_row(row) for row in ordering.levels[depth - 1].rows]
        assert oracle.full_rank(rows)
        assert oracle.flag_sign(rows, coords) == expected


@st.composite
def _cone_vectors(draw):
    """1..5 nonzero integer vectors of one dimension in 1..4, entries in -3..3."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    return draw(st.lists(vector, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(_cone_vectors(), st.data())
def test_cone_certificates_pass_the_oracle_checks(vectors, data):
    cert = classify_cone(vectors)
    if isinstance(cert, Halfspace):
        assert oracle.check_halfspace(cert.functional, vectors) is None
    else:
        assert oracle.check_zero_combo(cert.coefficients, vectors) is None
    # a strict separator of pos from neg is a half-space on pos and -neg
    split = data.draw(st.integers(1, len(vectors)))
    pos, neg = vectors[:split], vectors[split:] or [tuple(-x for x in vectors[0])]
    flipped = pos + [tuple(-x for x in q) for q in neg]
    try:
        f = strict_separator(pos, neg)
    except NoSeparator:
        combo = classify_cone(flipped)
        assert oracle.check_zero_combo(combo.coefficients, flipped) is None
        return
    assert oracle.check_halfspace(f, flipped) is None


_klein_elements = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=200, deadline=None)
@given(_klein_elements, _klein_elements, st.sampled_from([1, -1]), st.integers(-3, 3),
       st.sampled_from([1, -1]))
def test_klein_products_and_pulls_agree_with_the_oracle(p, q, eps, m, delta):
    product = KleinElement(*p) * KleinElement(*q)
    assert (product.a, product.b) == oracle.k_mul(p, q)
    # every automorphism of K sends x to x^eps y^m and y to y^delta
    image_x, image_y = (eps, m), (0, delta)
    phi = KleinAut(KleinElement(*image_x), KleinElement(*image_y))
    image = phi.apply(KleinElement(*p))
    assert (image.a, image.b) == oracle.k_apply(image_x, image_y, p)
    for ordering in k_enumerate_orderings():
        pulled = k_pull(phi, ordering)
        for r in oracle.k_ball(3):
            assert pulled.sign(KleinElement(*r)) == oracle.k_sign(
                ordering.eps, ordering.delta, oracle.k_apply(image_x, image_y, r))
