import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouporders.autact import (boundary_separation, common_power, ordering_witness,
                                primitive_root, pulled_sign, verify_automorphism)
import grouporders
from grouporders import autact, words
from grouporders.catalog import automorphism_catalog, ia_generators
from grouporders.errors import (EmptyWord, IdentityAutomorphism, NonAutomorphism,
                                NotFoundWithinBall)
from grouporders.exactlin import int_det
from grouporders.hall import induced_matrix
from grouporders.stdord import TwistedOrdering, identity_ordering
from grouporders.words import (Automorphism, Endomorphism, ball_words, generator,
                               identity_word, inner_automorphism, parse_endomorphism,
                               parse_word, word)

LEX = identity_ordering(2, 5)

# sha256 of each catalog entry's name and its cap-5 witness's JSON, one entry
# after another; 11 of the 24 witnesses are twisted orderings
CATALOG_WITNESS_DIGEST = "f2e8f21c9c8fbb17dd055a3e77a0cacb61d0db25ee546829bc7e015a98b4448c"


def test_primitive_root_examples():
    r = primitive_root(parse_word("x1 x2", 2) ** 3)
    assert (str(r.root), r.exponent) == ("x1 x2", 3)
    r = primitive_root(parse_word("x1 x2", 2))
    assert (str(r.root), r.exponent) == ("x1 x2", 1)
    r = primitive_root(parse_word("x2^-1 x1^3 x2", 2))
    assert (str(r.root), r.exponent) == ("x2^-1 x1 x2", 3)
    with pytest.raises(EmptyWord):
        primitive_root(parse_word("1", 2))


letters = st.integers(-2, 2).filter(lambda x: x != 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(letters, min_size=1, max_size=8))
def test_primitive_root_is_idempotent(ls):
    w = word(2, ls)
    if w.is_identity():
        return
    r = primitive_root(w)
    assert r.root ** r.exponent == w
    assert primitive_root(r.root).exponent == 1


def test_root_functions_are_reexported_from_words():
    for name in ("RootDecomposition", "primitive_root", "common_power"):
        assert getattr(autact, name) is getattr(words, name) is getattr(grouporders, name)


def test_common_power_examples():
    assert common_power(parse_word("x1^2", 2), parse_word("x1^3", 2)) == (3, 2)
    assert common_power(parse_word("x1", 2), parse_word("x2", 2)) is None
    assert common_power(parse_word("x1 x2", 2) ** 2, parse_word("x1 x2", 2)) == (1, 2)


def test_common_power_against_brute_force():
    words = [w for w in ball_words(2, 2)]
    for g, k in itertools.combinations(words, 2):
        claimed = common_power(g, k)
        brute = next(((a, b) for a in range(1, 7) for b in range(1, 7)
                      if g ** a == k ** b), None)
        if claimed is None:
            assert brute is None
        else:
            assert brute == claimed
        mirrored = common_power(k, g)
        assert (claimed is None) == (mirrored is None)
        if claimed is not None:
            assert mirrored == (claimed[1], claimed[0])


def test_pulled_sign_identity_and_law():
    phi = parse_endomorphism("x1 -> x1 x2", 2)
    psi = parse_endomorphism("x1 -> x2 ; x2 -> x1", 2)
    w = parse_word("x1", 2)
    assert pulled_sign(Endomorphism.identity(2), LEX, w) == LEX.sign(w)
    assert pulled_sign(phi, LEX, w) == LEX.sign(parse_word("x1 x2", 2)) == 1
    for ls in [(1,), (2, -1), (1, 2, 1)]:
        v = word(2, ls)
        assert pulled_sign(phi.compose(psi), LEX, v) == \
            LEX.sign(phi.apply(psi.apply(v)))


def test_witness_transvection_stays_on_level_one():
    phi = parse_endomorphism("x1 -> x1 x2 ; x2 -> x2", 2)
    witness = ordering_witness(phi)
    assert not isinstance(witness.ordering, TwistedOrdering)
    assert witness.sign_before != witness.sign_after


def test_witness_for_inner_automorphism():
    phi = inner_automorphism(parse_word("x1", 2))
    witness = ordering_witness(phi)
    assert isinstance(witness.ordering, TwistedOrdering)
    assert witness.word == parse_word("x2", 2)
    image = parse_word("x1 x2 x1^-1", 2)
    assert witness.ordering.sign(witness.word) != witness.ordering.sign(image)


def test_witness_rejects_identity_and_non_automorphisms():
    with pytest.raises(IdentityAutomorphism):
        ordering_witness(Endomorphism.identity(2))
    with pytest.raises(NonAutomorphism):
        ordering_witness(parse_endomorphism("x1 -> x1^2", 2))


def test_verify_automorphism_inverts_twist():
    phi = parse_endomorphism("x1 -> x1 x2 ; x2 -> x2 x1 x2", 2)
    assert verify_automorphism(phi).inverse == \
        parse_endomorphism("x1 -> x1^2 x2^-1 ; x2 -> x2 x1^-1", 2)


def test_verify_automorphism_finds_inverse():
    phi = parse_endomorphism("x1 -> x1 x2", 2)
    aut = verify_automorphism(phi)
    assert isinstance(aut, Automorphism)
    assert aut.inverse.apply(phi.apply(parse_word("x2 x1", 2))) == parse_word("x2 x1", 2)


def test_witness_catalog_is_self_verifying():
    for name, phi in automorphism_catalog():
        witness = ordering_witness(phi)
        assert witness.sign_before == witness.ordering.sign(witness.word), name
        assert witness.sign_after == witness.ordering.sign(
            phi.apply(witness.word)), name


def test_catalog_witnesses_are_pinned():
    digest = hashlib.sha256()
    twisted = 0
    for name, phi in automorphism_catalog():
        witness = ordering_witness(phi, 5)
        twisted += isinstance(witness.ordering, TwistedOrdering)
        digest.update(f"{name}\n{json.dumps(witness.to_json(), sort_keys=True)}\n".encode())
    assert twisted == 11
    assert digest.hexdigest() == CATALOG_WITNESS_DIGEST


def test_witness_json_shape():
    phi = inner_automorphism(parse_word("x2", 2))
    data = ordering_witness(phi).to_json()
    assert set(data) == {"ordering", "word", "sign_before", "sign_after", "map"}
    assert {data["sign_before"], data["sign_after"]} == {"+", "-"}


def test_boundary_separation_examples():
    phi = parse_endomorphism("x1 -> x1 x2 ; x2 -> x2", 2)
    assert boundary_separation(phi) == parse_word("x1", 2)
    conj = inner_automorphism(parse_word("x1", 2))
    g = boundary_separation(conj)
    assert g == parse_word("x2", 2)
    assert common_power(g, conj.apply(g)) is None
    with pytest.raises(IdentityAutomorphism):
        boundary_separation(Endomorphism.identity(2))


def test_boundary_separation_ball_exhaustion():
    # an endomorphism fixing the whole radius-1 ball up to powers
    with pytest.raises(NotFoundWithinBall):
        boundary_separation(parse_endomorphism("x1 -> x1 ; x2 -> x2^2", 2),
                            search_radius=0)


def bounded_inverse(phi, length_bound):
    """Reference: the earlier bounded search for preimages of the generators.

    None where the determinant test or the search within length_bound fails.
    """
    rank = phi.rank
    if abs(int_det(induced_matrix(phi, 1))) != 1:
        return None
    targets = {generator(rank, i).letters: i for i in range(1, rank + 1)}
    found = {}
    for w in ball_words(rank, length_bound):
        idx = targets.get(phi.apply(w).letters)
        if idx is not None and idx not in found:
            found[idx] = w
            if len(found) == rank:
                break
    if len(found) != rank:
        return None
    return Endomorphism(rank, tuple(found[i] for i in range(1, rank + 1)))


def folded_inverse(phi):
    """The fold's inverse, or None after checking what a rejection claims."""
    try:
        return verify_automorphism(phi).inverse
    except NonAutomorphism as exc:
        killed = re.fullmatch(r"phi sends (.*) to 1", str(exc))
        if killed:
            w = parse_word(killed.group(1), phi.rank)
            assert not w.is_identity() and phi.apply(w).is_identity()
        return None


def test_fold_matches_bounded_search_on_radius_two_maps():
    ball = [identity_word(2), *ball_words(2, 2)]
    verified = 0
    for images in itertools.product(ball, repeat=2):
        phi = Endomorphism(2, images)
        expected = bounded_inverse(phi, 8)
        if expected is not None:
            verified += 1
            assert folded_inverse(phi) == expected, phi
        else:
            folded_inverse(phi)
    assert (len(ball) ** 2, verified) == (289, 72)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3).filter(bool), max_size=3),
                min_size=3, max_size=3))
def test_fold_matches_bounded_search_on_rank_three_maps(raw):
    phi = Endomorphism(3, tuple(word(3, ls) for ls in raw))
    expected = bounded_inverse(phi, 4)
    got = folded_inverse(phi)
    if expected is not None:
        assert got == expected


def test_fold_inverts_the_catalog():
    for name, aut in automorphism_catalog():
        assert verify_automorphism(aut.forward).inverse == aut.inverse, name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.lists(st.integers(0, 99), min_size=1, max_size=5))
def test_fold_inverts_ia_products(rank, picks):
    pool = ia_generators(rank)
    product = pool[picks[0] % len(pool)]
    for pick in picks[1:]:
        product = product.compose(pool[pick % len(pool)])
    assert verify_automorphism(product.forward).inverse == product.inverse


@pytest.mark.parametrize("text", [
    "x1 -> x1^2",
    "x1 -> x1 x2 x1 ; x2 -> x2 x1 x2",
    "x1 -> x1 x2 x1^-1 x2^-1",
    "x1 -> x1^2 x2 x1^-1 ; x2 -> x2",  # determinant 1, still not onto
])
def test_fold_rejects_maps_that_are_not_onto(text):
    with pytest.raises(NonAutomorphism, match="do not generate"):
        verify_automorphism(parse_endomorphism(text, 2))


def test_fold_names_a_killed_word():
    phi = parse_endomorphism("x1 -> x1^2 ; x2 -> x1^3", 2)
    with pytest.raises(NonAutomorphism, match="to 1"):
        verify_automorphism(phi)
    assert folded_inverse(phi) is None


def test_fold_inverts_long_images():
    phi = parse_endomorphism("x1 -> x1 x2^500", 2)
    assert verify_automorphism(phi).inverse == parse_endomorphism("x1 -> x1 x2^-500", 2)


def test_witness_and_root_checks_survive_optimisation():
    code = textwrap.dedent("""
        from dataclasses import replace
        from grouporders.autact import RootDecomposition, ordering_witness
        from grouporders.errors import CertificateError
        from grouporders.words import parse_endomorphism, parse_word
        if __debug__:
            raise SystemExit("not running under -O")
        witness = ordering_witness(parse_endomorphism("x1 -> x1 x2", 2))
        for build in (lambda: replace(witness, sign_after=witness.sign_before),
                      lambda: RootDecomposition(parse_word("x1", 2), 0)):
            try:
                build()
            except CertificateError:
                continue
            raise SystemExit("a check was dropped")
    """)
    path = [str(Path(grouporders.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
