"""Integer power series in noncommuting variables, truncated by total degree.

A word maps into the units of this ring by sending the i-th generator to
``1 + X_i`` (and its inverse to the truncated geometric series).  The image
of a word w is written mu(w) here; its lowest nonzero homogeneous part above
degree 0 locates w in the lower central series, which for free groups
coincides with its torsion-adjusted variant because every quotient of
consecutive terms is free abelian.

Monomials are tuples of generator indices; the empty tuple is the constant
term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import DimensionMismatch, EmptyWord
from .words import Word

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

    def graded_part(self, degree: int) -> dict[Monomial, int]:
        return {m: c for m, c in self.coeffs.items() if len(m) == degree}

    def min_degree(self) -> int | None:
        """Lowest degree >= 1 carrying a nonzero coefficient, else None."""
        degrees = [len(m) for m in self.coeffs if m]
        return min(degrees) if degrees else None

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


def one(rank: int, cap: int) -> TruncatedSeries:
    return TruncatedSeries(rank, cap, {(): 1})


def _mul_generator(series_coeffs: dict[Monomial, int], index: int, sign: int,
                   cap: int) -> dict[Monomial, int]:
    """Multiply on the right by (1 + X)^sign, truncated."""
    out: dict[Monomial, int] = {}
    for m, c in series_coeffs.items():
        out[m] = out.get(m, 0) + c
        if sign > 0:
            m2 = m + (index,)
            if len(m2) <= cap:
                out[m2] = out.get(m2, 0) + c
        else:
            coeff = c
            m2 = m
            for _ in range(cap - len(m)):
                m2 = m2 + (index,)
                coeff = -coeff
                out[m2] = out.get(m2, 0) + coeff
    return {m: c for m, c in out.items() if c != 0}


def magnus(w: Word, cap: int) -> TruncatedSeries:
    """Multiplicative embedding of a word, truncated above total degree cap."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    coeffs: dict[Monomial, int] = {(): 1}
    for letter in w.letters:
        coeffs = _mul_generator(coeffs, abs(letter), 1 if letter > 0 else -1, cap)
    return TruncatedSeries(w.rank, cap, coeffs)


def lcs_depth(w: Word, cap: int) -> int | None:
    """Smallest i with a degree-i term in mu(w) - 1; None when deeper than cap.

    Every nonempty reduced word has finite depth once the cap is large
    enough (residual nilpotence of free groups), so None always means "not
    visible at this cap", never "trivial".
    """
    lead = leading_part(w, cap)
    return None if lead is None else lead[0]


def leading_part(w: Word, cap: int) -> tuple[int, dict[Monomial, int]] | None:
    """(depth, degree-depth part of mu(w)); None when deeper than cap.

    The degree-1 part is the vector of exponent sums, so a word with a
    nonzero exponent sum needs no series.  Any other word is expanded once,
    up to cap, and both answers are read from that one series.
    """
    if w.is_identity():
        raise EmptyWord("depth is undefined for the identity")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    sums = [0] * (w.rank + 1)
    for letter in w.letters:
        sums[abs(letter)] += 1 if letter > 0 else -1
    linear = {(i,): c for i, c in enumerate(sums) if c != 0}
    if linear:
        return 1, linear
    series = magnus(w, cap)
    depth = series.min_degree()
    return None if depth is None else (depth, series.graded_part(depth))
