"""Exact rational linear algebra and cone-separation certificates.

Vectors are tuples of ``fractions.Fraction`` (always in lowest terms with a
positive denominator, which the stdlib guarantees), matrices are tuples of
row vectors; cone work, which needs only signs, runs on integer multiples.
Everything here is exact; there is no floating point anywhere because every
downstream consumer turns these numbers into *signs*.

The one nontrivial routine is :func:`classify_cone`.  Given nonzero vectors
``v_1 .. v_m`` it produces exactly one of two self-verifying certificates:

* ``ZeroCombo(a)`` -- nonnegative integers, not all zero, with
  ``sum a_i v_i = 0``; equivalently the origin lies in the convex hull of
  the ``v_i``, so no ordering can make all of them positive.
* ``Halfspace(f)`` -- a functional with ``f . v_i > 0`` for every ``i``.

These alternatives are mutually exclusive (a strictly positive functional
rules out any nonnegative vanishing combination and vice versa), so the
dichotomy is decided by searching for a zero combination first and solving
for a strict functional only when none exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import (CertificateError, DimensionMismatch, EmptyInput, InputError,
                     NoSeparator, ParseError, ZeroVectorInput)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

MAX_CONE_SUBSETS = 10_000  # classify_cone and strict_separator refuse larger sets


def vector(entries: Iterable) -> Vector:
    """Coerce ints / strings like ``"3/4"`` / Fractions to an exact vector."""
    try:
        return tuple(Fraction(e) for e in entries)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator: {exc}") from None


def matrix(rows: Iterable[Iterable]) -> Matrix:
    rows = tuple(vector(r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("matrix rows must have equal length")
    return rows


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _int_row(v: Vector) -> tuple[tuple[int, ...], int]:
    """The constraint ``v . x >= 1`` times the lcm L of v's denominators: (L v, L)."""
    lcm = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (lcm // x.denominator) for x in v), lcm


def scale_to_integers(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Smallest positive multiple of ``v`` with integer entries and gcd 1."""
    ints = _int_row(vector(v))[0]
    g = math.gcd(*ints) or 1  # 0 only for the zero vector
    return tuple(x // g for x in ints)


def rref(rows: Iterable[Iterable]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, exact."""
    m = [list(vector(r)) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def rank(rows: Iterable[Iterable]) -> int:
    return len(rref(rows)[1])


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: each division, by the previous pivot, is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot], sign = m[pivot], m[c], -sign
        top = m[c]
        for row in m[c + 1:]:  # after step c, row[k] is a (c+1) x (c+1) minor
            row[c + 1:] = [(x * top[c] - row[c] * y) // prev
                           for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = top[c]
    return sign * prev


def kernel_basis(m: Iterable[Iterable]) -> list[Vector]:
    """Exact basis of the right null space of ``m``.

    Empty iff the matrix has full column rank.  Basis vectors carry a 1 in
    their free column, so the output is canonical for a given input.
    """
    m = matrix(m)
    if not m:
        raise EmptyInput("kernel_basis of an empty matrix")
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced[row_idx][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(a: Iterable[Iterable], b: Sequence) -> Vector | None:
    """One exact solution of ``a x = b``, or None if inconsistent."""
    a = matrix(a)
    b = vector(b)
    if len(a) != len(b):
        raise DimensionMismatch("solve_linear: row count must match rhs")
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx][ncols]
    return tuple(x)


@dataclass(frozen=True)
class Halfspace:
    """Functional with ``functional . v > 0`` for every classified vector."""

    functional: Vector

    def strict_for(self, vectors: Sequence[Sequence]) -> bool:
        """Dot products with f's integer multiple, all ``int`` on the cone callers' rows."""
        f = _int_row(self.functional)[0]
        return all(len(v) == len(f) and sum(map(mul, f, v)) > 0 for v in vectors)


@dataclass(frozen=True)
class ZeroCombo:
    """Nonnegative integer coefficients, not all zero, summing the input to 0."""

    coefficients: tuple[int, ...]

    def holds_for(self, vectors: Sequence[Vector]) -> bool:
        if len(self.coefficients) != len(vectors):
            return False
        if any(c < 0 for c in self.coefficients) or all(c == 0 for c in self.coefficients):
            return False
        n = len(vectors[0])
        total = [Fraction(0)] * n
        for c, v in zip(self.coefficients, vectors):
            for i in range(n):
                total[i] += c * v[i]
        return not any(total)


ConeCertificate = Halfspace | ZeroCombo


def _cone_rows(vs: Sequence) -> list[tuple[tuple[int, ...], int]]:
    """Each cone vector v parsed once into the integer row (L v, L) of the
    constraint ``v . x >= 1``, L the lcm of v's denominators: an all-``int``
    v is (v, 1), and only other entries go through ``Fraction``."""
    rows = [(v, 1) if all(type(x) is int for x in v) else _int_row(vector(v))
            for v in map(tuple, vs)]
    if not rows:
        raise EmptyInput("classify_cone needs at least one vector")
    n = len(rows[0][0])
    for row, _ in rows:
        if len(row) != n:
            raise DimensionMismatch("cone vectors must share a dimension")
        if not any(row):
            raise ZeroVectorInput("cone vectors must be nonzero")
    return rows


def _check_cone_size(rows: Sequence) -> None:
    """Refuse, before any work, a set with more than MAX_CONE_SUBSETS subsets
    of size 2 to n + 1: the zero-combination scan lists them, and each
    Fourier-Motzkin row past the inputs is keyed by one of them."""
    m, n = len(rows), len(rows[0][0])
    count = 0
    for size in range(2, min(m, n + 1) + 1):
        count += math.comb(m, size)
        if count > MAX_CONE_SUBSETS:
            raise InputError(f"{m} vectors in dimension {n} have more than "
                             f"{MAX_CONE_SUBSETS} subsets of size 2 to {min(m, n + 1)}")


def _find_zero_combo(vs: Sequence[Vector]) -> ZeroCombo | None:
    """Search for a minimal positively-dependent subset (a circuit).

    Any nonnegative vanishing combination contains one whose support has a
    one-dimensional kernel with a strictly signed generator, so scanning
    subsets in (size, index) order finds a certificate iff one exists and
    makes the output canonical.
    """
    m = len(vs)
    dim = len(vs[0])
    max_size = min(m, rank(vs) + 1)
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(range(m), size):
            cols = tuple(zip(*(vs[i] for i in subset)))  # dim x size
            ker = kernel_basis(cols) if cols else []
            if len(ker) != 1:
                continue
            gen = ker[0]
            if any(x == 0 for x in gen):
                continue
            if all(x > 0 for x in gen) or all(x < 0 for x in gen):
                ints = scale_to_integers(gen)
                if ints[0] < 0:
                    ints = tuple(-x for x in ints)
                coeffs = [0] * m
                for idx, c in zip(subset, ints):
                    coeffs[idx] = c
                combo = ZeroCombo(tuple(coeffs))
                if not combo.holds_for(vs):
                    raise CertificateError(f"{combo} does not vanish on {vs}")
                return combo
    return None


def solve_inequalities(constraints: list[tuple[Sequence, int | Fraction]],
                       nvars: int) -> Vector | None:
    """A point satisfying every ``coeffs . x >= b``, or None: the point of
    :func:`_integer_point` as ``Fraction``s."""
    point = _integer_point(constraints, nvars)
    return None if point is None else tuple(Fraction(x, point[1]) for x in point[0])


def _integer_point(constraints: list[tuple[Sequence, int | Fraction]],
                   nvars: int) -> tuple[tuple[int, ...], int] | None:
    """Numerators over one positive denominator of a point satisfying every
    ``coeffs . x >= b``, or None.

    Fourier-Motzkin: variables are eliminated from the last index down, each
    row keyed by its support (the inputs it combines); a combination whose
    support is held already or joins more than ``eliminated + 1`` inputs is
    implied by the rows kept (Chernikov 1965), so it is skipped and every
    projection stays the same.  Variables are then assigned back in ascending
    order from the bounds recorded at elimination, taking the max lower bound
    (else min upper bound, else zero): deterministic and seed-free.

    A row times a positive number leaves every projection and bound, hence
    the point, unchanged, so the cone callers pass integer rows and the whole
    solve stays in ``int``: back-substitution holds the values found as
    numerators over one positive common denominator, which it returns, and
    compares candidate bounds by cross-multiplication.
    """
    system = {1 << i: row for i, row in enumerate(constraints)}
    bounds = []  # (lowers, uppers) of each variable, last index first
    for var in range(nvars - 1, -1, -1):
        lowers, uppers, rest = {}, {}, {}
        for support, (coeffs, b) in system.items():
            c = coeffs[var]
            (lowers if c > 0 else uppers if c < 0 else rest)[support] = (coeffs, b)
        for low, (lc, lb) in lowers.items():
            for up, (uc, ub) in uppers.items():
                if (support := low | up) in rest or support.bit_count() > nvars - var + 1:
                    continue
                # combine x >= (lb - lrest)/lc with x <= (ub - urest)/uc
                scale_l, scale_u = -uc[var], lc[var]
                rest[support] = (tuple(scale_l * a + scale_u * b for a, b in zip(lc, uc)),
                                 scale_l * lb + scale_u * ub)  # exactly 0 at var
        system = rest
        bounds.append((lowers, uppers))
    if any(b > 0 for _, b in system.values()):
        return None
    nums, den = [], 1  # the values so far are nums[i] / den, den > 0
    for var, (lowers, uppers) in enumerate(reversed(bounds)):
        p, q = 0, 1  # the value p / (q den); zero with no bound
        for k, (coeffs, b) in enumerate((lowers or uppers).values()):
            bp, bq = b * den - sum(map(mul, coeffs, nums)), coeffs[var]
            # one variable's bounds share the sign of bq: bp / bq > p / q iff bp q > p bq
            if not k or (bp * q > p * bq if lowers else bp * q < p * bq):
                p, q = bp, bq
        if q < 0:
            p, q = -p, -q
        nums, den = [x * q for x in nums] + [p], den * q
    return tuple(nums), den


def classify_cone(vs: Sequence) -> ConeCertificate:
    """Decide whether the vectors admit a vanishing nonnegative combination.

    Returns a verified ``ZeroCombo`` when one exists, otherwise a verified
    strict ``Halfspace``.  One of the two always exists.
    """
    rows = _cone_rows(vs)
    _check_cone_size(rows)
    # the scan reads the vectors as given: ZeroCombo's coefficients refer to them
    combo = _find_zero_combo(tuple(map(vector, vs)))
    if combo is not None:
        return combo
    f = solve_inequalities(rows, len(rows[0][0]))
    if f is None:
        raise CertificateError("no zero combination and no strict functional")
    cert = Halfspace(f)
    if not cert.strict_for([row for row, _ in rows]):
        raise CertificateError(f"{cert} is not strictly positive on {rows}")
    return cert


def strict_separator(pos: Sequence, neg: Sequence) -> Vector:
    """Functional ``f`` with ``f.p > 0`` on pos and ``f.q < 0`` on neg.

    Raises :class:`NoSeparator` when the two sets cannot be strictly
    separated; the first functional under the deterministic elimination
    order is returned otherwise.
    """
    pos_rows, neg_rows = _cone_rows(pos), _cone_rows(neg)
    n = len(pos_rows[0][0])
    if len(neg_rows[0][0]) != n:
        raise DimensionMismatch("pos and neg must share a dimension")
    rows = pos_rows + [(tuple(-x for x in row), lcm) for row, lcm in neg_rows]
    _check_cone_size(rows)
    point = _integer_point(rows, n)
    if point is None:
        raise NoSeparator(f"no functional strictly separates {tuple(map(vector, pos))} "
                          f"from {tuple(map(vector, neg))}")
    nums, den = point
    f = tuple(Fraction(x, den) for x in nums)
    # den > 0, so the numerators sign each row as f does
    if not all(len(row) == len(nums) and sum(map(mul, nums, row)) > 0 for row, _ in rows):
        raise CertificateError(f"functional {f} does not strictly separate the rows {rows}")
    return f
