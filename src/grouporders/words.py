"""Freely reduced words, primitive roots and endomorphisms of free groups.

Letters are nonzero integers: ``+i`` is the i-th generator, ``-i`` its
inverse (indices run 1..rank).  Words always stay freely reduced.

Words from outside the library are validated: ``Word(rank, letters)``
checks every letter and that the tuple is reduced.  Words the library
builds reduced from reduced words go through ``_trusted``, which checks
nothing; a product cancels only at its seam (Lyndon-Schupp, ch. I), which
``reduced_product`` does on bare letter tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .errors import (CertificateError, EmptyWord, InputError, NonAutomorphism, ParseError,
                     RankMismatch)


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def reduced_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of a * b for reduced a and b: cancels the longest suffix of a
    that inverts a prefix of b."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:]


@dataclass(frozen=True, slots=True)
class Word:
    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(self.letters)  # shares the caller's tuple when it is one
        if not all(type(x) is int for x in letters):
            letters = tuple(int(x) for x in letters)
        if any(x == 0 or abs(x) > self.rank for x in letters):
            raise ParseError(f"letters must lie in 1..{self.rank} up to sign")
        if _reduce(letters) != letters:
            raise ParseError("words must be freely reduced; use word() to build")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise RankMismatch("cannot multiply words of different ranks")
        return _trusted(self.rank, reduced_product(self.letters, other.letters))

    def __pow__(self, n: int) -> "Word":
        """self^n = c w'^n c^-1 for self = c w' c^-1 with w' cyclically reduced,
        read off self's slices; for n > 0 it is reduced (Lyndon-Schupp, ch. I)."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return identity_word(self.rank)
        w, k = self.letters, self._conjugator_length()
        return _trusted(self.rank, w[:k] + w[k:len(w) - k] * n + w[len(w) - k:])

    def inverse(self) -> "Word":
        return _trusted(self.rank, tuple(-x for x in reversed(self.letters)))

    def conjugate_by(self, c: "Word") -> "Word":
        return c * self * c.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def _conjugator_length(self) -> int:
        """Length of the longest prefix whose mirror suffix is its inverse."""
        w = self.letters
        k = 0
        while 2 * k + 1 < len(w) and w[k] == -w[-1 - k]:
            k += 1
        return k

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """(core, conjugator) with self == conjugator * core * conjugator^-1,
        the conjugator being the prefix of length ``_conjugator_length``."""
        w, k = self.letters, self._conjugator_length()
        return _trusted(self.rank, w[k:len(w) - k]), _trusted(self.rank, w[:k])

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            letter = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == letter:
                j += 1
            exp = (j - i) * (1 if letter > 0 else -1)
            parts.append(f"x{abs(letter)}" + (f"^{exp}" if exp != 1 else ""))
            i = j
        return " ".join(parts)


def _trusted(rank: int, letters: tuple[int, ...]) -> Word:
    """A word the library built reduced from reduced words; checks nothing."""
    w = object.__new__(Word)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


@dataclass(frozen=True)
class RootDecomposition:
    root: Word
    exponent: int

    def __post_init__(self):
        if self.exponent < 1 or self.root.is_identity():
            raise CertificateError(f"({self.root})^{self.exponent} is no root decomposition")


def primitive_root(w: Word) -> RootDecomposition:
    """(h, m) with h^m == w, m maximal, via cyclic reduction and periodicity."""
    if w.is_identity():
        raise EmptyWord("the identity has no primitive root")
    core, conj = w.cyclic_reduce()
    n = len(core)
    # the least period of the core; p = n is one, so the search always ends
    p = next(p for p in range(1, n + 1)
             if n % p == 0 and core.letters == core.letters[:p] * (n // p))
    # core[:p] starts and ends as core does, so the root is reduced
    root = _trusted(w.rank, conj.letters + core.letters[:p] + conj.inverse().letters)
    m = n // p
    if root ** m != w:
        raise CertificateError(f"({root})^{m} is not {w}")
    return RootDecomposition(root, m)


def common_root(g: Word, k: Word) -> tuple[Word, tuple[int, int]] | None:
    """(h, (a, b)) with h the primitive root of both words and (a, b) minimal
    with g^a == k^b, a, b > 0, else None."""
    if g.is_identity() or k.is_identity():
        raise EmptyWord("common powers are defined for nonempty words")
    rg = primitive_root(g)
    rk = primitive_root(k)
    if rg.root != rk.root:
        return None
    m = rg.exponent * rk.exponent // gcd(rg.exponent, rk.exponent)
    a, b = m // rg.exponent, m // rk.exponent
    if g ** a != k ** b:
        raise CertificateError(f"({g})^{a} is not ({k})^{b}")
    return rg.root, (a, b)


def common_power(g: Word, k: Word) -> tuple[int, int] | None:
    """Minimal (a, b) with g^a == k^b and a, b > 0, else None.

    In a free group such powers exist exactly when the primitive roots
    coincide as reduced words.
    """
    shared = common_root(g, k)
    return None if shared is None else shared[1]


def identity_word(rank: int) -> Word:
    return Word(rank, ())


def word(rank: int, letters: Iterable[int]) -> Word:
    return Word(rank, _reduce(letters))


def generator(rank: int, index: int, power: int = 1) -> Word:
    if not 1 <= index <= rank:
        raise ParseError(f"generator index {index} outside 1..{rank}")
    sign = 1 if power >= 0 else -1
    return Word(rank, (sign * index,) * abs(power))


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
MAX_WORD_LETTERS = 10**6  # parse_word refuses to spell out longer words
MAX_BALL_WORDS = 2000  # verify_cone_axioms, which multiplies all pairs, refuses larger balls
MAX_SERIES_TERMS = 100_000  # series.magnus and its readers refuse larger expansions


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse whitespace-separated tokens like ``x1 x2^-1 x1^3``.

    With ``rank=None`` the rank is the largest generator index seen (at
    least 1).
    """
    tokens = text.split()
    letters: list[int] = []
    max_index = 1
    for token in tokens:
        if token == "1":
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad word token {token!r}")
        index = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if index < 1:
            raise ParseError(f"bad generator index in {token!r}")
        max_index = max(max_index, index)
        if len(letters) + abs(power) > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters at {token!r}")
        letters.extend([index if power > 0 else -index] * abs(power))
    if rank is None:
        rank = max_index
    return word(rank, letters)


@dataclass(frozen=True)
class Endomorphism:
    """Map of a free group given by the images of its generators."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if len(images) != self.rank:
            raise RankMismatch(f"expected {self.rank} generator images")
        if any(w.rank != self.rank for w in images):
            raise RankMismatch("image words must live in the same free group")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, rank: int) -> "Endomorphism":
        return cls(rank, tuple(generator(rank, i) for i in range(1, rank + 1)))

    def is_identity(self) -> bool:
        return self == Endomorphism.identity(self.rank)

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise RankMismatch("word rank does not match endomorphism rank")
        letters: list[int] = []
        for letter in w.letters:
            image = self.images[abs(letter) - 1]
            if letter > 0:
                letters.extend(image.letters)
            else:
                letters.extend(image.inverse().letters)
        return _trusted(self.rank, _reduce(letters))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: compose(f, g).apply(w) == f.apply(g.apply(w))."""
        if self.rank != other.rank:
            raise RankMismatch("cannot compose maps of different ranks")
        return Endomorphism(self.rank, tuple(self.apply(w) for w in other.images))

    def __str__(self) -> str:
        return " ; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(self.images))


def parse_endomorphism(text: str, rank: int | None = None) -> Endomorphism:
    """Parse clauses like ``x1 -> x1 x2 ; x2 -> x2``.

    Unlisted generators are fixed; the rank defaults to the largest index
    mentioned anywhere.  A rank above MAX_SERIES_TERMS is refused before any
    image is built.
    """
    clauses = [c.strip() for c in text.split(";") if c.strip()]
    if not clauses:
        raise ParseError("empty endomorphism")
    mapping: dict[int, str] = {}
    max_index = 1
    for clause in clauses:
        if "->" not in clause:
            raise ParseError(f"clause {clause!r} lacks '->'")
        lhs, rhs = clause.split("->", 1)
        m = _TOKEN.match(lhs.strip())
        if not m or m.group(2) is not None:
            raise ParseError(f"left side of {clause!r} must be a bare generator")
        index = int(m.group(1))
        if index in mapping:
            raise ParseError(f"generator x{index} mapped twice")
        mapping[index] = rhs.strip()
        max_index = max(max_index, index)
        for token in rhs.split():
            tm = _TOKEN.match(token)
            if tm:
                max_index = max(max_index, int(tm.group(1)))
    if rank is None:
        rank = max_index
    if rank > MAX_SERIES_TERMS:
        raise InputError(f"rank {rank} is above {MAX_SERIES_TERMS}; a map holds one image "
                         "per generator")
    for index in mapping:
        if not 1 <= index <= rank:
            raise ParseError(f"left side x{index} lies outside rank {rank}")
    images = []
    for i in range(1, rank + 1):
        if i in mapping:
            images.append(parse_word(mapping[i], rank))
        else:
            images.append(generator(rank, i))
    return Endomorphism(rank, tuple(images))


@dataclass(frozen=True)
class Automorphism:
    """Endomorphism bundled with a verified two-sided inverse."""

    forward: Endomorphism
    inverse: Endomorphism

    def __post_init__(self):
        rank = self.forward.rank
        ident = Endomorphism.identity(rank)
        if self.forward.compose(self.inverse) != ident or \
                self.inverse.compose(self.forward) != ident:
            raise NonAutomorphism("maps are not mutually inverse")

    @property
    def rank(self) -> int:
        return self.forward.rank

    def apply(self, w: Word) -> Word:
        return self.forward.apply(w)

    def compose(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(self.forward.compose(other.forward),
                            other.inverse.compose(self.inverse))

    def is_identity(self) -> bool:
        return self.forward.is_identity()


def inner_automorphism(c: Word) -> Automorphism:
    rank = c.rank
    fwd = Endomorphism(rank, tuple(generator(rank, i).conjugate_by(c)
                                   for i in range(1, rank + 1)))
    cinv = c.inverse()
    inv = Endomorphism(rank, tuple(generator(rank, i).conjugate_by(cinv)
                                   for i in range(1, rank + 1)))
    return Automorphism(fwd, inv)


def ball_size(rank: int, radius: int) -> int:
    """Count of ``ball_words``: 2r((2r-1)^R - 1)/(2r-2), or 2R when r = 1."""
    q = 2 * rank - 1
    return 2 * radius if q == 1 else 2 * rank * (q ** radius - 1) // (q - 1)


def ball_words(rank: int, radius: int) -> Iterator[Word]:
    """Nonempty reduced words of length <= radius, in length-lex order.

    The letter order is x1 < x1^-1 < x2 < x2^-1 < ...
    """
    alphabet = []
    for i in range(1, rank + 1):
        alphabet.extend([i, -i])
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        next_frontier = []
        for prefix in frontier:
            for letter in alphabet:
                if prefix and prefix[-1] == -letter:
                    continue
                extended = prefix + (letter,)
                next_frontier.append(extended)
                yield _trusted(rank, extended)
        frontier = next_frontier
