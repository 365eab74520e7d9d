import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouporders.errors import DimensionMismatch, EmptyWord, InputError
from grouporders.series import (MAX_SERIES_TERMS, TruncatedSeries, concat, lcs_depth,
                                leading_part, linear_part, magnus, magnus_part)
from grouporders.words import commutator, generator, identity_word, parse_word, word


def test_magnus_of_identity():
    assert magnus(identity_word(2), 3).is_one()


def test_magnus_of_generator():
    s = magnus(parse_word("x1", 2), 2)
    assert s.coeffs == {(): 1, (1,): 1}


def test_magnus_of_commutator():
    s = magnus(parse_word("x1 x2 x1^-1 x2^-1", 2), 2)
    assert s.coeffs == {(): 1, (1, 2): 1, (2, 1): -1}


def test_magnus_of_inverse_letter():
    s = magnus(parse_word("x1^-1", 2), 3)
    assert s.coeffs == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


letters = st.integers(-2, 2).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=7)


@settings(max_examples=120, deadline=None)
@given(raw_words, raw_words)
def test_magnus_is_multiplicative(a, b):
    u, v = word(2, a), word(2, b)
    assert magnus(u * v, 4) == magnus(u, 4) * magnus(v, 4)


@settings(max_examples=80, deadline=None)
@given(raw_words)
def test_magnus_inverse_is_series_inverse(ls):
    w = word(2, ls)
    assert (magnus(w, 4) * magnus(w.inverse(), 4)).is_one()


@settings(max_examples=80, deadline=None)
@given(raw_words)
def test_linear_part_is_the_degree_one_part(ls):
    w = word(2, ls)
    assert linear_part(w) == {m: c for m, c in magnus(w, 1).coeffs.items() if len(m) == 1}


def test_depth_examples():
    x1 = generator(2, 1)
    x2 = generator(2, 2)
    assert lcs_depth(x1, 5) == 1
    t = commutator(x1, x2)
    assert lcs_depth(t, 5) == 2
    assert lcs_depth(commutator(t, x1), 3) == 3
    assert lcs_depth(t, 1) is None


def test_depth_rejects_identity():
    with pytest.raises(EmptyWord):
        lcs_depth(identity_word(2), 5)


def test_depth_rejects_cap_below_one_on_every_path():
    with pytest.raises(InputError):
        lcs_depth(generator(2, 1), 0)  # nonzero exponent sum: no series built
    with pytest.raises(InputError):
        lcs_depth(commutator(generator(2, 1), generator(2, 2)), 0)
    with pytest.raises(EmptyWord):
        leading_part(identity_word(2), 0)


def test_every_series_reader_refuses_a_low_cap_or_an_oversized_series():
    w = commutator(generator(2, 1), generator(2, 2))  # zero exponent sums: a series is built
    for reader in (magnus, magnus_part, leading_part):
        with pytest.raises(InputError, match="at least 1"):
            reader(w, 0)
        with pytest.raises(InputError, match="may hold more than"):
            reader(w, MAX_SERIES_TERMS)
    assert leading_part(generator(2, 1), MAX_SERIES_TERMS) == (1, {(1,): 1})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leading_part_agrees_with_full_series(data):
    rank = data.draw(st.sampled_from([2, 3]))
    cap = data.draw(st.integers(1, 7 if rank == 2 else 5))
    rank_letters = st.integers(-rank, rank).filter(lambda x: x != 0)
    u, v, x = (word(rank, data.draw(st.lists(rank_letters, max_size=5))) for _ in range(3))
    # commutators and their products have zero exponent sums
    w = data.draw(st.sampled_from([u, u * v, commutator(u, v),
                                   commutator(u, v) * commutator(v, x),
                                   commutator(commutator(u, v), x)]))
    if w.is_identity():
        with pytest.raises(EmptyWord):
            leading_part(w, cap)
        return
    coeffs = magnus(w, cap).coeffs
    depth = min((len(m) for m in coeffs if m), default=None)
    expected = None if depth is None else \
        (depth, {m: c for m, c in coeffs.items() if len(m) == depth})
    assert leading_part(w, cap) == expected
    assert lcs_depth(w, cap) == depth


def test_injectivity_on_small_ball():
    from grouporders.words import ball_words
    for w in ball_words(2, 4):
        assert not magnus(w, 5).is_one()


@settings(max_examples=50, deadline=None)
@given(raw_words, raw_words)
def test_depth_superadditive_on_commutators(a, b):
    u, v = word(2, a), word(2, b)
    if u.is_identity() or v.is_identity():
        return
    c = commutator(u, v)
    if c.is_identity():
        return
    cap = 5
    du, dv, dc = lcs_depth(u, cap), lcs_depth(v, cap), lcs_depth(c, cap)
    if du is not None and dv is not None:
        assert dc is None or dc >= du + dv


def test_series_str_and_one():
    assert str(TruncatedSeries(2, 3, {(): 1})) == "1"
    s = TruncatedSeries(2, 2, {(): 1, (1, 2): 1, (2, 1): -1})
    assert str(s) == "1 + X1 X2 - X2 X1"


def _reference_mul(a, b, cap):
    """The product loop of TruncatedSeries.__mul__ before concat."""
    out = {}
    for m1, c1 in a.items():
        room = cap - len(m1)
        for m2, c2 in b.items():
            if len(m2) > room:
                continue
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _reference_concat(a, b):
    """The uncapped product the twist constraints used before concat."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return out


def _nonzero(d):
    return {m: c for m, c in d.items() if c != 0}


monomial_dicts = st.dictionaries(st.lists(st.integers(1, 3), max_size=4).map(tuple),
                                 st.integers(-3, 3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(monomial_dicts, monomial_dicts, st.one_of(st.none(), st.integers(1, 6)))
def test_concat_matches_the_old_products(a, b, cap):
    product = concat(a, b, cap)
    if cap is None:
        assert product == _nonzero(_reference_concat(a, b))
        return
    assert product == _nonzero(_reference_mul(a, b, cap))
    sa, sb = TruncatedSeries(3, cap, a), TruncatedSeries(3, cap, b)
    assert (sa * sb).coeffs == _nonzero(_reference_mul(sa.coeffs, sb.coeffs, cap))


def test_series_product_needs_equal_rank_and_cap():
    x1 = magnus(generator(2, 1), 3)
    with pytest.raises(DimensionMismatch):
        x1 * magnus(generator(2, 1), 4)
    with pytest.raises(DimensionMismatch):
        x1 * magnus(generator(3, 1), 3)


def test_series_equality_and_hash():
    s = TruncatedSeries(2, 3, {(): 1, (1,): 2, (2, 1): 0})
    same = TruncatedSeries(2, 3, {(1,): 2, (): 1})
    assert s == same and hash(s) == hash(same)
    assert s != TruncatedSeries(3, 3, same.coeffs)
    assert s != TruncatedSeries(2, 4, same.coeffs)
    assert s != TruncatedSeries(2, 3, {(): 1})
    assert s != "1 + 2 X1"
