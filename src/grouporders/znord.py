"""Flag orderings on Z^n and the GL_n(Z) action on them.

A flag ordering is stored as a full-rank square rational matrix; the sign of
an integer vector is the sign of the first nonzero entry of its image.  The
matrix encodes both the flag of hyperplanes (successive partial kernels) and
the choice of positive half-space at each stage.  Irrational hyperplanes are
not representable here, deliberately: every witness this package produces
can be realized with a rational flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from operator import mul

from . import exactlin
from .errors import CertificateError, DimensionMismatch, InputError, IsIdentity, NoCone
from .exactlin import Matrix, _int_row, classify_cone, int_det, matrix, vector

MAX_WITNESS_VECTORS = 2 * (5 ** 5 - 1)  # gl_witness's two scans in all; enough for n <= 5


@dataclass(frozen=True)
class FlagOrdering:
    """Full-rank n x n rational matrix, outermost functional first; checked exactly
    when its rows come from outside the library (see ``_trusted_flag``)."""

    rows: Matrix
    # each row times a positive integer: the same signs, integer arithmetic
    _int_rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or len(rows[0]) != len(rows):  # matrix() made the rows equally long
            raise DimensionMismatch("flag matrix must be square and nonempty")
        object.__setattr__(self, "_int_rows", tuple(_int_row(r)[0] for r in rows))
        if int_det(self._int_rows) == 0:
            raise DimensionMismatch("flag matrix must have full rank")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def sign(self, v) -> int:
        return flag_sign(self, v)

    def canonical_rows(self) -> Matrix:
        """Canonical representative of the sign function this matrix defines.

        Positive row scaling and adding multiples of earlier rows to later
        rows never change any sign, so reducing later rows at earlier pivots
        and normalizing each leading entry to +-1 picks one matrix per
        ordering.
        """
        rows = [list(r) for r in self.rows]
        n = len(rows)
        for i in range(n):
            pivot = next(c for c in range(n) if rows[i][c] != 0)
            lead = abs(rows[i][pivot])
            rows[i] = [x / lead for x in rows[i]]
            for j in range(i + 1, n):
                if rows[j][pivot] != 0:
                    f = rows[j][pivot] / rows[i][pivot]
                    rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
        return tuple(tuple(r) for r in rows)

    def same_ordering(self, other: "FlagOrdering") -> bool:
        return self.canonical_rows() == other.canonical_rows()

    def to_json(self) -> dict:
        return {
            "n": self.dimension,
            "rows": [[str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data) -> "FlagOrdering":
        rows = data["rows"]
        n = data.get("n", len(rows))  # optional; written by to_json
        if type(n) is not int or n != len(rows):
            raise InputError(f"flag gives n = {n!r} but has {len(rows)} rows")
        return cls(matrix(rows))

    @classmethod
    def identity(cls, n: int) -> "FlagOrdering":
        if n < 1:
            raise DimensionMismatch("flag matrix must be square and nonempty")
        return complete_flag((1,) + (0,) * (n - 1))  # e_1, then e_2 .. e_n


@dataclass(frozen=True)
class IntegerAutomorphism:
    """Square integer matrix with determinant +-1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("automorphism matrix must be square")
        if abs(int_det(rows)) != 1:
            raise DimensionMismatch("automorphism matrix must have det +-1")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def is_identity(self) -> bool:
        n = self.dimension
        return all(self.entries[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    def apply(self, v) -> tuple[int, ...]:
        v = tuple(int(x) for x in v)
        if len(v) != self.dimension:
            raise DimensionMismatch("vector dimension mismatch")
        return tuple(sum(r * x for r, x in zip(row, v)) for row in self.entries)


def flag_sign(f: FlagOrdering, v) -> int:
    """-1, 0 or +1; zero only for the zero vector."""
    v = tuple(v)
    if not all(type(x) is int for x in v):
        v = _int_row(vector(v))[0]
    if len(v) != f.dimension:
        raise DimensionMismatch(
            f"vector of dimension {len(v)} under a flag of dimension {f.dimension}")
    return _int_sign(f, v)


def _int_sign(f: FlagOrdering, v: tuple[int, ...]) -> int:
    """flag_sign of an int tuple of the flag's dimension; checks nothing."""
    for row in f._int_rows:
        value = sum(map(mul, row, v))
        if value:
            return 1 if value > 0 else -1
    return 0


def opposite(f: FlagOrdering) -> FlagOrdering:
    return _trusted_flag(tuple(tuple(-x for x in row) for row in f.rows),
                         tuple(tuple(-x for x in row) for row in f._int_rows))


def act(a: IntegerAutomorphism, f: FlagOrdering) -> FlagOrdering:
    """Pullback ordering: the returned flag signs v the way f signs A.v; det FA = +-det F."""
    if a.dimension != f.dimension:
        raise DimensionMismatch("matrix and flag dimensions differ")
    rows = tuple(tuple(sum(map(mul, row, col)) for col in zip(*a.entries)) for row in f.rows)
    return _trusted_flag(rows, tuple(_int_row(r)[0] for r in rows))


def _ball_vectors(n: int, radius: int):
    """Nonzero integer vectors grouped by max-norm shell, lexicographic."""
    for r in range(1, radius + 1):
        for v in product(range(-r, r + 1), repeat=n):
            if max(abs(x) for x in v) == r:
                yield v


def complete_flag(first_row) -> FlagOrdering:
    """The flag with ``first_row`` outermost, completed by standard basis rows.

    The basis rows follow in index order, leaving out the one at the first
    row's last nonzero index: that is the only basis row already in the span
    of the first row and the basis rows before it.  The determinant is then
    plus or minus that nonzero entry, so the flag is trusted.
    """
    given = tuple(first_row)
    first = vector(given)
    int_first = given if all(type(x) is int for x in given) else _int_row(first)[0]
    skip = max((i for i, x in enumerate(int_first) if x), default=None)
    if skip is None:
        raise DimensionMismatch("the first row of a flag must be nonzero")
    n = len(first)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n) if i != skip]
    zero_one = (Fraction(0), Fraction(1))  # shared by every basis row
    return _trusted_flag((first, *(tuple(zero_one[x] for x in u) for u in units)),
                         (int_first, *units))


def _trusted_flag(rows: Matrix, int_rows: tuple[tuple[int, ...], ...]) -> FlagOrdering:
    """A square Fraction matrix the library built full rank, never rows parsed from
    input (as ``words._trusted``), and its integer rows as cached; checks nothing."""
    flag = object.__new__(FlagOrdering)
    object.__setattr__(flag, "rows", rows)
    object.__setattr__(flag, "_int_rows", int_rows)
    return flag


def realize_flag(positives) -> FlagOrdering:
    """A flag ordering making every input vector positive.

    Succeeds exactly when no nonnegative combination of the inputs vanishes;
    otherwise raises :class:`NoCone` carrying the certificate.  The outermost
    functional is the strict half-space found by :func:`classify_cone` and
    the flag is completed with standard basis rows.
    """
    positives = list(positives)
    cert = classify_cone(positives)
    if isinstance(cert, exactlin.ZeroCombo):
        raise NoCone("inputs admit a vanishing nonnegative combination", cert)
    flag = complete_flag(cert.functional)
    if any(flag_sign(flag, v) != 1 for v in positives):
        raise CertificateError(f"flag {flag} does not make every input positive")
    return flag


def gl_witness(a: IntegerAutomorphism) -> tuple[FlagOrdering, tuple[int, ...]]:
    """A flag ordering and vector on which ``a`` visibly changes signs.

    Search order: the lexicographic ordering (identity flag) against small
    vectors first, then a constructed flag making some ``v`` positive and
    ``A.v`` negative.  The first hit is returned; no canonicity is claimed.
    Once the two scans have visited MAX_WITNESS_VECTORS vectors, the
    constructed flag is tried on the basis vectors, one of which ``a``
    moves; every matrix of dimension 5 or less hits before that.
    """
    if a.is_identity():
        raise IsIdentity("the identity matrix preserves every ordering")
    n = a.dimension
    budget = iter(range(MAX_WITNESS_VECTORS))  # shared by both scans
    # a lower unitriangular A keeps the first nonzero coordinate of every v
    if not all(a.entries[i][j] == (i == j) for i in range(n) for j in range(i, n)):
        identity = FlagOrdering.identity(n)
        moved = _trusted_flag(matrix(a.entries), a.entries)  # signs v as identity signs A.v
        for v, _ in zip(_ball_vectors(n, 2), budget):
            if flag_sign(identity, v) != flag_sign(moved, v):
                return identity, v
    # past the budget, the basis vectors: a non-identity A moves one of them, and the
    # only positive rational eigenvalue of a unimodular integer matrix is 1
    scan = (v for v, _ in zip(_ball_vectors(n, 2), budget))
    basis = (tuple(int(i == j) for j in range(n)) for i in range(n))
    # skip v with A.v a positive multiple of v: no cone separates those
    v = next(v for v in chain(scan, basis) if positive_ratio(v, a.apply(v)) is None)
    image = a.apply(v)
    flag = realize_flag([v, tuple(-x for x in image)])
    if flag_sign(flag, v) != 1 or flag_sign(flag, image) != -1:
        raise CertificateError(f"flag {flag} does not separate {v} from its image {image}")
    return flag, v


def positive_ratio(u, v) -> Fraction | None:
    """lambda > 0 with v = lambda * u, or None."""
    ratio = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return None
        if a != 0:
            r = Fraction(b, a)
            if r <= 0:
                return None
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio
