import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouporders import klein
from grouporders.errors import CertificateError, IdentityElement, NonAutomorphism, ParseError
from grouporders.klein import (KleinAut, KleinElement, KleinOrdering, alpha1, alpha2,
                               alpha3, identity_aut, inner_by, is_inner,
                               k_enumerate_orderings, k_mul, k_out_table, k_pull, k_sign,
                               parse_klein, parse_klein_aut, survey_ball_orderings)

X = KleinElement(1, 0)
Y = KleinElement(0, 1)


def _abelianized(p):
    """Image in Z x Z/2; inner automorphisms act trivially there."""
    return (p.a, p.b % 2)


def test_mul_examples():
    assert k_mul(X, Y) == KleinElement(1, 1)
    assert k_mul(Y, X) == KleinElement(1, -1)


def test_defining_relation():
    assert X.inverse() * Y * X == Y.inverse()


elements = st.builds(KleinElement, st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=200, deadline=None)
@given(elements, elements, elements)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=100, deadline=None)
@given(elements)
def test_inverse(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_parse_klein():
    assert parse_klein("x^2 y^-3") == KleinElement(2, -3)
    assert parse_klein("y x y") == KleinElement(1, 0)
    assert parse_klein("1").is_identity()
    with pytest.raises(ParseError):
        parse_klein("z")


def test_sign_examples():
    pp = KleinOrdering(1, 1)
    assert k_sign(pp, KleinElement(3, -5)) == 1
    assert k_sign(pp, KleinElement(0, -1)) == -1
    assert k_sign(KleinOrdering(-1, 1), KleinElement(1, 0)) == -1
    with pytest.raises(IdentityElement):
        k_sign(pp, KleinElement(0, 0))


def test_enumerate_orderings():
    orderings = k_enumerate_orderings()
    assert len(orderings) == 4
    # pairwise distinct already on the radius-1 ball
    ball = [KleinElement(1, 0), KleinElement(-1, 0), KleinElement(0, 1),
            KleinElement(0, -1)]
    profiles = {tuple(o.sign(p) for p in ball) for o in orderings}
    assert len(profiles) == 4
    # opposite pairing
    for o in orderings:
        assert o.opposite() in orderings
        assert all(o.opposite().sign(p) == -o.sign(p) for p in ball)


def test_no_ordering_is_bi_invariant():
    for o in k_enumerate_orderings():
        conj = X * Y * X.inverse()
        assert o.sign(conj) == -o.sign(Y)


def test_automorphism_validation():
    with pytest.raises(NonAutomorphism):
        KleinAut(KleinElement(2, 0), Y)  # x^-2 y x^2 = y, relation fails
    with pytest.raises(NonAutomorphism):
        KleinAut(X, KleinElement(0, 2))  # relation holds but no inverse exists
    with pytest.raises(NonAutomorphism):
        KleinAut(Y, X)


def test_k_pull_examples():
    orderings = k_enumerate_orderings()
    for o in orderings:
        assert k_pull(identity_aut(), o) == o
        assert k_pull(alpha1(), o) == o
        assert k_pull(alpha3(), o) == KleinOrdering(-o.eps, -o.delta)


def test_k_pull_well_defined_up_to_inner_on_these_cones():
    # composing with inner automorphisms by x^(2k) or y fixes each cone
    for o in k_enumerate_orderings():
        for c in (KleinElement(0, 1), KleinElement(2, 0), KleinElement(2, 3)):
            assert k_pull(inner_by(c).compose(alpha1()), o) == \
                k_pull(alpha1(), o)


def test_alpha1_non_inner_alpha2_differs_by_inner():
    assert is_inner(alpha1()) is None
    assert _abelianized(alpha1().apply(X)) != _abelianized(X)
    conj = is_inner(alpha2().compose(alpha1().inverse()))
    assert conj is not None
    assert inner_by(conj).compose(alpha1()).apply(X) == alpha2().apply(X)


def test_out_table():
    table = k_out_table()
    assert table.is_klein_four_group
    assert set(table.class_names) == {"1", "a1", "a3", "a1a3"}
    assert table.actions["a1"] == (0, 1, 2, 3)
    assert table.actions["a3"] != (0, 1, 2, 3)
    assert "a1" in table.action_kernel
    assert not table.faithful_on_orderings
    assert len(table.conjugacy_orbits) == 2


def test_conjugation_by_y_fixes_all_orderings():
    conj = inner_by(Y)
    assert not conj.is_identity()
    for o in k_enumerate_orderings():
        assert k_pull(conj, o) == o


def test_exhaustive_ball_survey_finds_exactly_four():
    locally_consistent, extendable = survey_ball_orderings(3, 5)
    assert extendable == 4
    assert locally_consistent >= 4


def _repeated_power(p, n):
    base = p if n >= 0 else p.inverse()
    result = KleinElement(0, 0)
    for _ in range(abs(n)):
        result = result * base
    return result


@settings(max_examples=100, deadline=None)
@given(elements)
def test_power_matches_repeated_multiplication(p):
    for n in range(-20, 21):
        assert p ** n == _repeated_power(p, n)


def _searched_inverse(image_x, image_y, bound=8):
    """Reference: search x -> x^ex y^m, y -> y^dy for a right inverse."""
    def apply(p):
        return _repeated_power(image_x, p.a) * _repeated_power(image_y, p.b)
    bound = max(bound, abs(image_x.b) + 1)
    for ex in (1, -1):
        for m in range(-bound, bound + 1):
            for dy in (1, -1):
                cx, cy = KleinElement(ex, m), KleinElement(0, dy)
                if apply(cx) == X and apply(cy) == Y:
                    return cx, cy
    return None


def test_automorphisms_match_brute_force_inverse_search():
    ball = [KleinElement(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    accepted = 0
    for image_x in ball:
        for image_y in ball:
            relation = image_x.inverse() * image_y * image_x == image_y.inverse()
            expected = _searched_inverse(image_x, image_y) if relation else None
            try:
                phi = KleinAut(image_x, image_y)
            except NonAutomorphism:
                assert expected is None, (image_x, image_y)
                continue
            assert expected is not None, (image_x, image_y)
            inv = phi.inverse()
            assert (inv.image_x, inv.image_y) == expected
            accepted += 1
    assert accepted == 2 * 9 * 2


def test_is_inner_beyond_the_old_search_box():
    phi = inner_by(KleinElement(0, 20))
    assert (phi.image_x, phi.image_y) == (KleinElement(1, -40), Y)
    c = is_inner(phi)
    assert c is not None and inner_by(c) == phi


def _searched_conjugator(phi, bound=8):
    """Reference: a conjugator in [-bound, bound]^2, or None."""
    if _abelianized(phi.apply(X)) != _abelianized(X) or \
            _abelianized(phi.apply(Y)) != _abelianized(Y):
        return None
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            c = KleinElement(a, b)
            if c * X * c.inverse() == phi.apply(X) and \
                    c * Y * c.inverse() == phi.apply(Y):
                return c
    return None


def test_is_inner_matches_bounded_search():
    inner = 0
    for e in (1, -1):
        for d in (1, -1):
            for m in range(-8, 9):
                phi = KleinAut(KleinElement(e, m), KleinElement(0, d))
                expected = _searched_conjugator(phi)
                c = is_inner(phi)
                assert (c is None) == (expected is None), phi
                if c is not None:
                    # conjugators are unique up to the centre <x^2>
                    assert inner_by(c) == inner_by(expected) == phi
                    assert c.b == expected.b and (c.a - expected.a) % 2 == 0
                    inner += 1
    assert inner == 2 * 9


def test_each_cone_is_checked_once(monkeypatch):
    checked = []
    real = klein._cone_axioms_hold

    def counting(ordering, radius):
        checked.append((ordering.eps, ordering.delta, radius))
        return real(ordering, radius)

    monkeypatch.setattr(klein, "_cone_axioms_hold", counting)
    klein._verify_cone.cache_clear()
    try:
        for _ in range(3):
            k_out_table()
        assert sorted(checked) == [(-1, -1, 3), (-1, 1, 3), (1, -1, 3), (1, 1, 3)]
        klein._verify_cone.cache_clear()
        monkeypatch.setattr(klein, "_cone_axioms_hold", lambda ordering, radius: False)
        with pytest.raises(CertificateError):
            KleinOrdering(1, 1)
    finally:
        klein._verify_cone.cache_clear()



def test_each_pull_is_checked_once():
    klein._verify_pull.cache_clear()
    try:
        tables = [k_out_table() for _ in range(3)]
        assert tables[0] == tables[1] == tables[2]
        # 28 pulls per table: 4 class representatives, conjugation by y, and
        # conjugation by x and by y again, each on the 4 cones; 24 are distinct
        info = klein._verify_pull.cache_info()
        assert (info.misses, info.hits) == (24, 3 * 28 - 24)
        with pytest.raises(CertificateError):
            klein._verify_pull(alpha1(), KleinOrdering(1, 1), KleinOrdering(1, -1))
    finally:
        klein._verify_pull.cache_clear()
