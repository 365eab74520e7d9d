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
unitriangular integer matrix.  Bases and triangles are cached per (rank,
weight) as immutable tuples.  Triangles and induced maps share one layer
builder on integer-coded monomials, whose bracket images live for the call.

Depth 1 needs no series: the weight-1 layer is the generators with an empty
triangle, so a word of nonzero exponent sum has its exponent sums as
coordinates, which ``leading_coords`` counts in one pass over the letters.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CertificateError, DepthExceedsCap, InputError
from .series import Monomial, concat, leading_part, linear_part
from .words import MAX_SERIES_TERMS, Endomorphism, Word, commutator, generator

MAX_LIE_TERMS = 10 ** 6  # held bracket images in induced_matrix, and its entries

# A bracket is either a generator index or a pair of brackets.
Bracket = int | tuple


@lru_cache(maxsize=None)  # bounded: one key per layer listed, each <= MAX_SERIES_TERMS words
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


@lru_cache(maxsize=None)  # bounded: as lyndon_words, which refuses a layer first
def basis_layer(rank: int, weight: int) -> tuple[Bracket, ...]:
    """Basic commutators of one weight, ordered like their Lyndon words."""
    return tuple(_bracketing(w) for w in lyndon_words(rank, weight))


def _bracketing(w: tuple[int, ...]) -> Bracket:
    if len(w) == 1:
        return w[0]
    # standard factorization: split before the least proper suffix
    split = min(range(1, len(w)), key=lambda i: w[i:])
    return (_bracketing(w[:split]), _bracketing(w[split:]))


@lru_cache(maxsize=None)  # bounded: int values; each caller stops past its term bound
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


def bracket_expansion(b: Bracket) -> dict[Monomial, int]:
    """[u,v] = uv - vu in the free associative ring, on tuple monomials for stdord; uncached."""
    if isinstance(b, int):
        return {(b,): 1}
    left = bracket_expansion(b[0])
    right = bracket_expansion(b[1])
    out = concat(left, right)
    for m, c in concat(right, left).items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c != 0}


@lru_cache(maxsize=None)  # bounded: one key per layer read, rows <= 2^(weight-1) entries
def _triangle(rank: int, weight: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i: (k, coefficient) of each Lyndon word k > i in bracket i's expansion."""
    index = {code: k for k, code in enumerate(_lyndon_codes(rank, weight))}
    images = _lie_layers([{i: 1} for i in range(1, rank + 1)], weight)
    rows = []
    for i, b in enumerate(basis_layer(rank, weight)):
        if isinstance(b, int):
            image = images[b][0]
        else:  # the top layer's images are built one at a time, never held together
            (p, s), (q, t) = images[b[0]], images[b[1]]
            image = _commutator(p, q, (rank + 1) ** s, (rank + 1) ** t)
        row = sorted((index[m], c) for m, c in image.items() if m in index)
        if row[:1] != [(i, 1)]:
            raise CertificateError(f"bracket {b} is not word {i} plus later Lyndon words")
        rows.append(tuple(row[1:]))
    return tuple(rows)


def decompose_lie(rank: int, weight: int, part: dict[Monomial, int]) -> tuple[int, ...]:
    """Coordinates over the basis layer of a degree part that is a Lie element.

    Forward substitution: coordinate i is Lyndon word i's coefficient less
    what the brackets before i put there.
    """
    return _substitute(rank, weight, [part.get(w, 0) for w in lyndon_words(rank, weight)])


def _substitute(rank: int, weight: int, coords: list[int]) -> tuple[int, ...]:
    """Basis coordinates from the coefficients on the Lyndon words, in place."""
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
    """(depth, basis coordinates at that depth) for a word visible at cap.

    A word with a nonzero exponent sum has depth 1 and its exponent sums as
    coordinates (see the module docstring); only other words read the series.
    """
    lyndon_words(w.rank, 1)  # refuses a level-1 layer too long to list, before the sums
    sums = [0] * (w.rank + 1)
    for letter in w.letters:
        sums[abs(letter)] += 1 if letter > 0 else -1
    if cap >= 1 and any(sums):  # leading_part refuses a cap below 1
        return 1, tuple(sums[1:])
    lead = leading_part(w, cap)
    if lead is None:
        raise DepthExceedsCap(f"word is trivial in every quotient up to class {cap}")
    depth, part = lead
    return depth, decompose_lie(w.rank, depth, part)


def induced_matrix(phi: Endomorphism, level: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the induced map on the level-th lower-central quotient.

    Columns are the coordinates of the images of the weight-``level`` basic
    commutators, so the matrix acts on coordinate columns from the left.

    The lower-central quotients form the free Lie ring on H = F/gamma_2
    (Magnus and Witt; Reutenauer, *Free Lie Algebras*), so the level-k map
    is the k-th Lie power of the level-1 matrix and no image word is built.
    A generator goes to the linear part of its image (its exponent sums;
    zero when the image lies in gamma_2), and a bracket (b1, b2) to
    P1 P2 - P2 P1 in the free associative ring.  The images of the lower
    layers are built layer by layer and held for the call.  A top bracket's
    image is read only at the Lyndon words of the top layer, each
    coefficient two products of its factors' coefficients, and dropped
    once its column is solved.

    Refused with InputError before any work when the held images may hold
    more than MAX_LIE_TERMS (10^6) terms, that is layer_rank(rank, k) *
    rank^k summed over k < level, or the matrix has more than MAX_LIE_TERMS
    entries.  That admits rank 2 up to level 12, rank 3 up to 8, rank 4 up
    to 6, rank 5 up to 5 and, at level 1, rank up to 1000.
    """
    rank = phi.rank
    held = 0
    for k in range(1, level):
        held += layer_rank(rank, k) * rank ** k
        if held > MAX_LIE_TERMS:
            break
    if held > MAX_LIE_TERMS or layer_rank(rank, level) ** 2 > MAX_LIE_TERMS:
        raise InputError(f"the level-{level} map of rank {rank} needs more than "
                         f"{MAX_LIE_TERMS} Lie terms")
    images = _lie_layers([{m[0]: c for m, c in linear_part(w).items()} for w in phi.images],
                         level)
    codes = _lyndon_codes(rank, level)
    # j -> each top Lyndon word as (its first level - j letters, its last j)
    splits = {j: [divmod(code, (rank + 1) ** j) for code in codes] for j in range(1, level)}
    columns = []
    for b in basis_layer(rank, level):
        if isinstance(b, int):
            p = images[b][0]
            coeffs = [p.get(code, 0) for code in codes]
        else:
            (p, i), (q, j) = images[b[0]], images[b[1]]
            coeffs = [p.get(u, 0) * q.get(v, 0) - q.get(s, 0) * p.get(t, 0)
                      for (u, v), (s, t) in zip(splits[j], splits[i])]
        columns.append(_substitute(rank, level, coeffs))
    return tuple(zip(*columns))


def _lyndon_codes(rank: int, weight: int) -> list[int]:
    """Lyndon words coded as in series: base-(rank+1) numerals, uv = u * base^|v| + v."""
    base = rank + 1
    return [sum(x * base ** k for k, x in enumerate(reversed(w)))
            for w in lyndon_words(rank, weight)]


def _lie_layers(images: list[dict[int, int]],
                top: int) -> dict[Bracket, tuple[dict[int, int], int]]:
    """Bracket -> (image, weight) for the generators, given as coded degree-1
    dicts, and each Lyndon bracket of weight below top, built from its factors."""
    base = len(images) + 1
    held = {i: (p, 1) for i, p in enumerate(images, start=1)}
    for k in range(2, top):
        for b in basis_layer(len(images), k):
            (p, i), (q, j) = held[b[0]], held[b[1]]
            held[b] = _commutator(p, q, base ** i, base ** j), k
    return held


def _commutator(p: dict[int, int], q: dict[int, int],
                p_shift: int, q_shift: int) -> dict[int, int]:
    """PQ - QP on coded monomials, each shift being base^(the factor's degree)."""
    out: dict[int, int] = {}
    for m1, c1 in p.items():
        m1 *= q_shift
        for m2, c2 in q.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    for m2, c2 in q.items():
        m2 *= p_shift
        for m1, c1 in p.items():
            out[m2 + m1] = out.get(m2 + m1, 0) - c1 * c2
    return {m: c for m, c in out.items() if c}


def identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
