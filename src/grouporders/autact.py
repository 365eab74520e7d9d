"""Automorphisms acting on orderings: witnesses, roots, boundary certificates.

The headline operation is :func:`ordering_witness`: given a non-identity
automorphism (a bare map is decided and inverted by Stallings folding in
:func:`verify_automorphism`) it produces an ordering and a word whose sign
the map visibly changes.  Maps moving the abelianization are witnessed
through a flag ordering on it; the rest are IA and are witnessed by
separating some word from its image, which generally requires a twisted
(non-bi-invariant) ordering.

Boundary statements for free groups reduce to root combinatorics: two words
share a positive common power iff their primitive roots coincide, so a word
whose root differs from its image's root certifies distinct fixed-point
pairs at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CertificateError, DepthCapExceeded, IdentityAutomorphism,
                     NonAutomorphism, NotFoundWithinBall)
from .hall import identity_matrix, induced_matrix
from .stdord import (Ordering, StandardOrdering, identity_levels, separate,
                     std_sign)
# RootDecomposition and primitive_root are re-exported for callers of autact
from .words import (Automorphism, Endomorphism, RootDecomposition, Word, ball_words,
                    common_power, generator, primitive_root)
from .znord import IntegerAutomorphism, gl_witness

WITNESS_RADIUS = 3  # ball searched by ordering_witness for a word an IA map moves


def _as_endomorphism(phi) -> Endomorphism:
    return phi.forward if isinstance(phi, Automorphism) else phi


def verify_automorphism(phi) -> Automorphism:
    """Bundle an endomorphism with its inverse, read off a Stallings fold.

    Image i is a loop at the base with labels x_i, 1, 1, ..., so phi of a
    closed path's label is the word it reads (Stallings, Invent. Math.
    1983).  One letter joining two classes by two different labels gives a
    word phi kills; else phi is onto, so an automorphism (F_n is Hopfian),
    exactly when the fold ends in the rose at the base, and the label of
    the x_j loop is the preimage of x_j.
    """
    if isinstance(phi, Automorphism):
        return phi
    one = Word(phi.rank, ())
    parent, offset, todo = [0], {}, []  # todo: half-edges (u, letter, v, label)
    for i, image in enumerate(phi.images, start=1):
        path = [0, *range(len(parent), len(parent) + len(image) - 1), 0]
        parent += path[1:-1]
        for k, letter in enumerate(image.letters):
            label = generator(phi.rank, i) if k == 0 else one
            todo += [(path[k], letter, path[k + 1], label),
                     (path[k + 1], -letter, path[k], label.inverse())]

    def find(v):
        """The root of v's class and the label of a path from it to v."""
        label = one
        while parent[v] != v:  # path halving: v skips to its grandparent
            p = parent[v]
            parent[v], offset[v] = parent[p], offset.get(p, one) * offset[v]
            label, v = offset[v] * label, parent[v]
        return v, label

    def hop(u, letter, v, label):  # the roots of u and v, and the label between them
        (r, mu), (s, mv) = find(u), find(v)
        return r, s, mu * label * mv.inverse()

    out = [{} for _ in parent]  # class root -> letter -> a half-edge from it
    while todo:
        edge = todo.pop()
        r, s, m2 = hop(*edge)
        _, s1, m1 = hop(*out[r].setdefault(edge[1], edge))
        if s1 == s and m1 != m2:
            raise NonAutomorphism(f"phi sends {m1 * m2.inverse()} to 1")
        if s1 != s:  # merge, the lower root staying, so the base stays a root
            if s < s1:
                s, s1, m1, m2 = s1, s, m2, m1
            parent[s], offset[s] = s1, m1.inverse() * m2  # label s1 -> s
            todo += out[s].values()  # s is no root now, so out[s] is never read again
    loops = [hop(*out[0][j]) for j in range(1, phi.rank + 1) if j in out[0]]
    if [s for _, s, _ in loops] != [0] * phi.rank:
        raise NonAutomorphism("the images do not generate the free group")
    return Automorphism(phi, Endomorphism(phi.rank, tuple(m for _, _, m in loops)))


@dataclass(frozen=True)
class OrderingWitness:
    """Self-verifying record that a map changes the sign of one word."""

    ordering: Ordering
    word: Word
    sign_before: int
    sign_after: int
    mapping: Endomorphism

    def __post_init__(self):
        before = std_sign(self.ordering, self.word)
        after = std_sign(self.ordering, self.mapping.apply(self.word))
        if (self.sign_before, self.sign_after) != (before, after) or before == after:
            raise CertificateError(f"signs of {self.word} under {self.mapping} do not check")

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
    levels = identity_levels(endo.rank, cap)  # refuses oversized flags before the fold
    verify_automorphism(phi)
    rank = endo.rank
    a1 = induced_matrix(endo, 1)
    if a1 != identity_matrix(rank):
        flag, v = gl_witness(IntegerAutomorphism(a1))
        w = Word(rank, ())
        for i, e in enumerate(v, start=1):
            w = w * generator(rank, i, e)
        ordering = StandardOrdering(rank, cap, (flag,) + levels[1:])
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
