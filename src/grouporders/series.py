"""Integer power series in noncommuting variables, truncated by total degree.

A word maps into the units of this ring by sending the i-th generator to
``1 + X_i`` (and its inverse to the truncated geometric series).  The image
of a word w is written mu(w) here; its lowest nonzero homogeneous part above
degree 0 locates w in the lower central series, which for free groups
coincides with its torsion-adjusted variant because every quotient of
consecutive terms is free abelian.

Monomials are tuples of generator indices; the empty tuple is the constant
term.  While a word is expanded, the series is held as one dict per degree,
keyed by the monomial's base-(rank+1) numeral (its digits are the indices),
and each letter updates the degrees in place: x_i adds degree d times X_i
into degree d+1, top degree first; x_i^-1 subtracts the updated degree d-1
times X_i from degree d, bottom first, because new (1 + X_i) = old.  Callers
decode only the degrees they read: ``magnus`` all, ``leading_part`` the
first nonzero one, ``magnus_part`` the top one; ``linear_part`` expands
nothing, since degree 1 is the vector of exponent sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import DimensionMismatch, EmptyWord, InputError
from .words import MAX_SERIES_TERMS, Word

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class TruncatedSeries:
    rank: int
    cap: int
    coeffs: Mapping[Monomial, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {m: c for m, c in self.coeffs.items() if c != 0 and len(m) <= self.cap}
        object.__setattr__(self, "coeffs", cleaned)

    def __hash__(self):
        return hash((self.rank, self.cap, frozenset(self.coeffs.items())))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.rank != other.rank or self.cap != other.cap:
            raise DimensionMismatch("series factors need equal rank and cap")
        return TruncatedSeries(self.rank, self.cap, concat(self.coeffs, other.coeffs, self.cap))

    def is_one(self) -> bool:
        return self.coeffs == {(): 1}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        def key(m):
            return (len(m), m)
        parts = []
        for m in sorted(self.coeffs, key=key):
            c = self.coeffs[m]
            name = "1" if not m else " ".join(f"X{i}" for i in m)
            if c == 1 and m:
                parts.append(f"+ {name}")
            elif c == -1 and m:
                parts.append(f"- {name}")
            elif c >= 0:
                parts.append(f"+ {c} {name}".rstrip() if m else f"+ {c}")
            else:
                parts.append(f"- {-c} {name}".rstrip() if m else f"- {-c}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def concat(a: Mapping[Monomial, int], b: Mapping[Monomial, int],
           cap: int | None = None) -> dict[Monomial, int]:
    """Concatenation product of two monomial dicts, without degrees above cap
    and without zero coefficients."""
    out: dict[Monomial, int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if cap is None or len(m1) + len(m2) <= cap:
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _check_terms(w: Word, cap: int) -> None:
    """Refuse a series that may hold more than MAX_SERIES_TERMS terms.

    Degree d holds at most rank^d monomials, and at most C(n+d-1, d) for an
    n-letter word: the multisets of d letter positions.  Each degree counts
    at least one term, so a cap above the bound is refused for any word.
    """
    n, limit = len(w.letters), MAX_SERIES_TERMS
    terms = power = multisets = 1
    for d in range(1, cap + 1):
        # both counts grow with d, so clipping them above the limit keeps the verdict
        power = min(power * w.rank, limit + 1)
        multisets = min(multisets * (n + d - 1) // d, limit + 1)
        terms += max(1, min(power, multisets))
        if terms > limit:
            raise InputError(f"the degree-{cap} series of a {n}-letter word of rank "
                             f"{w.rank} may hold more than {limit} terms")


def _expand(w: Word, cap: int) -> list[dict[int, int]]:
    """Degree parts 0..cap of mu(w), keyed by base-(rank+1) numerals."""
    if cap < 1:
        raise InputError("cap must be at least 1")
    _check_terms(w, cap)
    base = w.rank + 1
    parts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(cap)]
    for letter in w.letters:
        i = abs(letter)
        # x_i reads old lower degrees, so top first; x_i^-1 reads new ones, so bottom first
        sign, order = (1, range(cap - 1, -1, -1)) if letter > 0 else (-1, range(cap))
        for d in order:
            target = parts[d + 1]
            for code, c in parts[d].items():
                key = code * base + i
                value = target.get(key, 0) + sign * c
                if value:
                    target[key] = value
                else:
                    del target[key]
    return parts


def _decode(rank: int, degree: int, part: dict[int, int]) -> dict[Monomial, int]:
    base = rank + 1
    out: dict[Monomial, int] = {}
    for code, c in part.items():
        digits = [0] * degree
        for k in range(degree - 1, -1, -1):
            code, digits[k] = divmod(code, base)
        out[tuple(digits)] = c
    return out


def magnus(w: Word, cap: int) -> TruncatedSeries:
    """Multiplicative embedding of a word, truncated above total degree cap.

    Like every series reader, raises InputError for a cap below 1 or a
    series that may hold more than MAX_SERIES_TERMS terms.
    """
    parts = _expand(w, cap)
    coeffs: dict[Monomial, int] = {}
    for degree, part in enumerate(parts):
        coeffs.update(_decode(w.rank, degree, part))
    return TruncatedSeries(w.rank, cap, coeffs)


def magnus_part(w: Word, degree: int) -> dict[Monomial, int]:
    """The degree part of mu(w), the only one decoded; magnus decodes them all."""
    return _decode(w.rank, degree, _expand(w, degree)[degree])


def lcs_depth(w: Word, cap: int) -> int | None:
    """Smallest i with a degree-i term in mu(w) - 1; None when deeper than cap.

    Every nonempty reduced word has finite depth once the cap is large
    enough (residual nilpotence of free groups), so None always means "not
    visible at this cap", never "trivial".
    """
    lead = leading_part(w, cap)
    return None if lead is None else lead[0]


def linear_part(w: Word) -> dict[Monomial, int]:
    """The degree-1 part of mu(w): each generator's exponent sum, zeros left out."""
    sums: dict[int, int] = {}
    for letter in w.letters:
        i = abs(letter)
        sums[i] = sums.get(i, 0) + (1 if letter > 0 else -1)
    return {(i,): c for i, c in sorted(sums.items()) if c != 0}


def leading_part(w: Word, cap: int) -> tuple[int, dict[Monomial, int]] | None:
    """(depth, degree-depth part of mu(w)); None when deeper than cap.

    The degree-1 part is the vector of exponent sums, so a word with a
    nonzero exponent sum needs no series.  Any other word is expanded once,
    up to cap, and both answers are read from that one series.
    """
    if w.is_identity():
        raise EmptyWord("depth is undefined for the identity")
    if cap < 1:
        raise InputError("cap must be at least 1")
    linear = linear_part(w)
    if linear:
        return 1, linear
    parts = _expand(w, cap)
    depth = next((d for d in range(1, cap + 1) if parts[d]), None)
    return None if depth is None else (depth, _decode(w.rank, depth, parts[depth]))
