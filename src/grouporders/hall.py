"""Basic commutators and exact coordinates on lower-central quotients.

The basis of basic commutators used everywhere is the Lyndon basis: one
bracket per Lyndon word over the generator alphabet, bracketed along the
standard factorization (split at the least proper suffix).  Its weight-i
layer is a basis of the degree-i homogeneous Lie elements, and the class of
a depth-i word inside the i-th lower-central quotient is read off by
decomposing the degree-i part of its series image over the layer.

The bracket of a Lyndon word w expands as w plus lexicographically larger
words (Reutenauer, *Free Lie Algebras*, Thm 5.1), so the coefficients on
Lyndon words alone give the coordinates, by forward substitution against a
unitriangular integer matrix.  Bases, bracket expansions and triangles are
cached per (rank, weight); everything they return is immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import CertificateError, DepthExceedsCap, InputError
from .series import Monomial, concat, leading_part
from .words import MAX_SERIES_TERMS, Endomorphism, Word, commutator, generator

# A bracket is either a generator index or a pair of brackets.
Bracket = int | tuple


@lru_cache(maxsize=None)
def lyndon_words(rank: int, weight: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of the given length, lexicographically ordered.

    Duval's step to the next Lyndon word of length <= weight: repeat the word
    to length weight, drop trailing letters equal to rank, raise the last.
    A layer longer than MAX_SERIES_TERMS is refused before it is listed.
    """
    if layer_rank(rank, weight) > MAX_SERIES_TERMS:
        raise InputError(f"level {weight} of rank {rank} has more than "
                         f"{MAX_SERIES_TERMS} basic commutators")
    words = []
    w = [1] if rank > 0 else []
    while w:
        if len(w) == weight:
            words.append(tuple(w))
        w = [w[i % len(w)] for i in range(weight)]
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(words)


@lru_cache(maxsize=None)
def basis_layer(rank: int, weight: int) -> tuple[Bracket, ...]:
    """Basic commutators of one weight, ordered like their Lyndon words."""
    return tuple(_bracketing(w) for w in lyndon_words(rank, weight))


def _bracketing(w: tuple[int, ...]) -> Bracket:
    if len(w) == 1:
        return w[0]
    # standard factorization: split before the least proper suffix
    split = min(range(1, len(w)), key=lambda i: w[i:])
    return (_bracketing(w[:split]), _bracketing(w[split:]))


@lru_cache(maxsize=None)
def layer_rank(rank: int, weight: int) -> int:
    """Number of Lyndon words of a length, by Witt's formula, listing none.

    Each word of length n is a power of a rotation of one Lyndon word of
    length d | n, so rank^n = sum over d | n of d * layer_rank(rank, d).
    """
    if weight < 1:
        return 0
    proper = sum(d * layer_rank(rank, d) for d in range(1, weight // 2 + 1) if weight % d == 0)
    return (rank ** weight - proper) // weight


def bracket_word(rank: int, b: Bracket) -> Word:
    """The group commutator word spelled by a bracket."""
    if isinstance(b, int):
        return generator(rank, b)
    return commutator(bracket_word(rank, b[0]), bracket_word(rank, b[1]))


@lru_cache(maxsize=None)
def bracket_expansion(b: Bracket) -> dict[Monomial, int]:
    """Expansion of a bracket in the free associative ring, [u,v] = uv - vu."""
    if isinstance(b, int):
        return {(b,): 1}
    left = bracket_expansion(b[0])
    right = bracket_expansion(b[1])
    out = concat(left, right)
    for m, c in concat(right, left).items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def monomials(rank: int, degree: int) -> tuple[Monomial, ...]:
    return tuple(product(range(1, rank + 1), repeat=degree))


@lru_cache(maxsize=None)
def _triangle(rank: int, weight: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i: (k, coefficient) of each Lyndon word k > i in bracket i's expansion."""
    index = {w: k for k, w in enumerate(lyndon_words(rank, weight))}
    rows = []
    for i, b in enumerate(basis_layer(rank, weight)):
        row = sorted((index[m], c) for m, c in bracket_expansion(b).items() if m in index)
        if row[:1] != [(i, 1)]:
            raise CertificateError(f"bracket {b} is not word {i} plus later Lyndon words")
        rows.append(tuple(row[1:]))
    return tuple(rows)


def decompose_lie(rank: int, weight: int, part: dict[Monomial, int]) -> tuple[int, ...]:
    """Coordinates over the basis layer of a degree part that is a Lie element.

    Forward substitution: coordinate i is Lyndon word i's coefficient less
    what the brackets before i put there.
    """
    coords = [part.get(w, 0) for w in lyndon_words(rank, weight)]
    for i, row in enumerate(_triangle(rank, weight)):
        c = coords[i]
        if c:
            for k, x in row:
                coords[k] -= c * x
    return tuple(coords)


def coords_at_level(w: Word, level: int) -> tuple[int, ...]:
    """Class of a word of depth >= level inside the level-th quotient.

    Zero vector when the word sits strictly deeper.
    """
    lead = None if w.is_identity() else leading_part(w, level)
    if lead is None:
        return tuple(0 for _ in range(layer_rank(w.rank, level)))
    depth, part = lead
    if depth < level:
        raise DepthExceedsCap(
            f"word has depth {depth} < requested level {level}")
    return decompose_lie(w.rank, level, part)


def leading_coords(w: Word, cap: int) -> tuple[int, tuple[int, ...]]:
    """(depth, basis coordinates at that depth) for a word visible at cap."""
    lead = leading_part(w, cap)
    if lead is None:
        raise DepthExceedsCap(f"word is trivial in every quotient up to class {cap}")
    depth, part = lead
    return depth, decompose_lie(w.rank, depth, part)


def induced_matrix(phi: Endomorphism, level: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the induced map on the level-th lower-central quotient.

    Columns are the coordinates of the images of the weight-``level`` basic
    commutators, so the matrix acts on coordinate columns from the left.
    """
    layer = basis_layer(phi.rank, level)
    columns = []
    for b in layer:
        image = phi.apply(bracket_word(phi.rank, b))
        columns.append(coords_at_level(image, level))
    return tuple(tuple(col[i] for col in columns) for i in range(len(layer)))


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
