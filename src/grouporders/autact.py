"""Automorphisms acting on orderings: witnesses, roots, boundary certificates.

The headline operation is :func:`ordering_witness`: given a non-identity
automorphism it produces an ordering and a word whose sign the automorphism
visibly changes.  Automorphisms moving the abelianization are witnessed
through a flag ordering on the abelianization; the rest are IA and are
witnessed by separating some word from its image, which generally requires
a twisted (non-bi-invariant) ordering.

Boundary statements for free groups reduce to root combinatorics: two words
share a positive common power iff their primitive roots coincide, so a word
whose root differs from its image's root certifies distinct fixed-point
pairs at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (DepthCapExceeded, EmptyWord, IdentityAutomorphism,
                     NonAutomorphism, NotFoundWithinBall)
from .hall import identity_matrix, induced_matrix
from .stdord import (Ordering, StandardOrdering, identity_levels, separate,
                     std_sign)
from .words import Automorphism, Endomorphism, Word, ball_words, generator
from .znord import IntegerAutomorphism, gl_witness

WITNESS_RADIUS = 3  # ball searched by ordering_witness for a word an IA map moves


@dataclass(frozen=True)
class RootDecomposition:
    root: Word
    exponent: int

    def __post_init__(self):
        assert self.exponent >= 1
        assert not self.root.is_identity()


def primitive_root(w: Word) -> RootDecomposition:
    """(h, m) with h^m == w, m maximal, via cyclic reduction and periodicity."""
    if w.is_identity():
        raise EmptyWord("the identity has no primitive root")
    core, conj = w.cyclic_reduce()
    n = len(core)
    for p in range(1, n + 1):
        if n % p:
            continue
        if core.letters == core.letters[:p] * (n // p):
            root_core = Word(w.rank, core.letters[:p])
            root = conj * root_core * conj.inverse()
            m = n // p
            assert root ** m == w
            return RootDecomposition(root, m)
    raise AssertionError("unreachable: every word is a power of itself")


def common_power(g: Word, k: Word) -> tuple[int, int] | None:
    """Minimal (a, b) with g^a == k^b and a, b > 0, else None.

    In a free group such powers exist exactly when the primitive roots
    coincide as reduced words.
    """
    if g.is_identity() or k.is_identity():
        raise EmptyWord("common powers are defined for nonempty words")
    rg = primitive_root(g)
    rk = primitive_root(k)
    if rg.root != rk.root:
        return None
    m = rg.exponent * rk.exponent // gcd(rg.exponent, rk.exponent)
    a, b = m // rg.exponent, m // rk.exponent
    assert g ** a == k ** b
    return a, b


def _as_endomorphism(phi) -> Endomorphism:
    return phi.forward if isinstance(phi, Automorphism) else phi


def verify_automorphism(phi, length_bound: int = 8) -> Automorphism:
    """Bundle an endomorphism with an inverse found by bounded search.

    A surjective endomorphism of a finitely generated free group is an
    automorphism, so finding preimages of every generator among words of
    length <= length_bound certifies automorphy.  Failure of the bounded
    search is reported as NonAutomorphism (meaning: not verified within the
    bound), after a fast determinant rejection on the abelianization.
    """
    if isinstance(phi, Automorphism):
        return phi
    rank = phi.rank
    a1 = induced_matrix(phi, 1)
    from .znord import _int_det
    if abs(_int_det(a1)) != 1:
        raise NonAutomorphism("abelianization matrix is not invertible over Z")
    targets = {generator(rank, i).letters: i for i in range(1, rank + 1)}
    found: dict[int, Word] = {}
    for w in ball_words(rank, length_bound):
        image = phi.apply(w)
        idx = targets.get(image.letters)
        if idx is not None and idx not in found:
            found[idx] = w
            if len(found) == rank:
                break
    if len(found) != rank:
        raise NonAutomorphism(
            f"no inverse with images of length <= {length_bound}; "
            "automorphy unverified")
    inverse = Endomorphism(rank, tuple(found[i] for i in range(1, rank + 1)))
    return Automorphism(phi, inverse)


@dataclass(frozen=True)
class OrderingWitness:
    """Self-verifying record that a map changes the sign of one word."""

    ordering: Ordering
    word: Word
    sign_before: int
    sign_after: int
    mapping: Endomorphism

    def __post_init__(self):
        assert self.sign_before == std_sign(self.ordering, self.word)
        assert self.sign_after == std_sign(self.ordering, self.mapping.apply(self.word))
        assert self.sign_before != self.sign_after

    def to_json(self) -> dict:
        return {
            "ordering": self.ordering.to_json(),
            "word": str(self.word),
            "sign_before": "+" if self.sign_before > 0 else "-",
            "sign_after": "+" if self.sign_after > 0 else "-",
            "map": str(self.mapping),
        }


def pulled_sign(phi, ordering: Ordering, w: Word) -> int:
    """Sign of w in the ordering pulled back through phi."""
    return std_sign(ordering, _as_endomorphism(phi).apply(w))


def ordering_witness(phi, cap: int = 5) -> OrderingWitness:
    """An ordering and word certifying that phi moves some left ordering.

    Non-IA maps are witnessed on the abelianization; IA maps by separating
    the first moved ball word from its image.  DepthCapExceeded is a
    declared outcome (the divergence may sit below the cap), not a bug.
    """
    endo = _as_endomorphism(phi)
    if endo.is_identity():
        raise IdentityAutomorphism("the identity fixes every ordering")
    verify_automorphism(phi)
    rank = endo.rank
    a1 = induced_matrix(endo, 1)
    if a1 != identity_matrix(rank):
        flag, v = gl_witness(IntegerAutomorphism(a1))
        w = Word(rank, ())
        for i, e in enumerate(v, start=1):
            w = w * generator(rank, i, e)
        levels = (flag,) + identity_levels(rank, cap)[1:]
        ordering = StandardOrdering(rank, cap, levels)
        return OrderingWitness(ordering, w, std_sign(ordering, w),
                               std_sign(ordering, endo.apply(w)), endo)
    failure: Exception | None = None
    for g in ball_words(rank, WITNESS_RADIUS):
        image = endo.apply(g)
        if image == g:
            continue
        try:
            ordering = separate(image, g, cap)
        except DepthCapExceeded as exc:
            failure = exc
            continue
        return OrderingWitness(ordering, g, -1, 1, endo)
    raise DepthCapExceeded(
        f"no witness within radius {WITNESS_RADIUS} at cap {cap}") from failure


def boundary_separation(phi, search_radius: int = 3) -> Word:
    """A word sharing no power with its image, certifying distinct
    attracting fixed points on the boundary for the word and its image."""
    endo = _as_endomorphism(phi)
    if endo.is_identity():
        raise IdentityAutomorphism("the identity moves no boundary point")
    for g in ball_words(endo.rank, search_radius):
        image = endo.apply(g)
        if image.is_identity():
            continue
        if common_power(g, image) is None:
            return g
    raise NotFoundWithinBall(
        f"no boundary certificate within radius {search_radius}")
