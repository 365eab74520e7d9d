"""Left-invariant orderings of free groups, exact within a class cap.

Two representations are provided.

``StandardOrdering`` carries one flag ordering per lower-central level and
signs a word by its leading basis coordinates.  These orderings are
bi-invariant: conjugation acts trivially on every lower-central quotient,
so conjugate words always receive equal signs.

``TwistedOrdering`` extends the family where bi-invariance is an
obstruction, e.g. to make a word positive and a conjugate of it negative.
It scans a short chain of rational functionals over the graded coefficients
of the series embedding:

    levels below the pivot level d
    -> functionals on level d vanishing on a pivot direction U
    -> a twist row  alpha * (dual of U) + psi(degree-j coefficients)
    -> the dual of U
    -> plain levels d+1 .. cap

Every row is additive on the subgroup where the earlier rows vanish; for
the twist row this is enforced by building ``psi`` orthogonal to all
concatenation products of coefficient vectors that subgroup can produce
(see :func:`_twist_constraints`).  First-nonzero-row sign is therefore a
genuine left-invariant total order on all words of depth <= cap.

Only twists with j <= 2d + 1 are constructed; the constraint space has a
proven description in that range.  Separations that would need more are
reported as :class:`DepthCapExceeded`, never silently approximated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import exactlin, hall
from .errors import (CertificateError, CommonRoot, DepthCapExceeded, DepthExceedsCap,
                     DimensionMismatch, EmptyWord, InputError, ParseError)
from .exactlin import strict_separator
from .hall import decompose_lie, layer_rank, leading_coords
from .series import Monomial, concat, leading_part, magnus_part
from .words import (MAX_BALL_WORDS, MAX_WORD_LETTERS, Word, _trusted, ball_size,
                    ball_words, common_root, identity_word, reduced_product)
from .znord import (FlagOrdering, _int_sign, complete_flag, flag_sign,
                    opposite as flag_opposite, positive_ratio)

POWER_BOUND = 64  # largest exponent a or b that separate tries in g^a, k^b
MAX_FLAG_ENTRIES = 100_000  # no ordering holds level flags with more matrix entries


def _check_int(name: str, value) -> None:
    """Refuse a float, bool or string where JSON must give an integer."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {value!r}")


def _check_flag_entries(rank: int, cap: int) -> None:
    """Refuse level flags that would hold more than MAX_FLAG_ENTRIES entries,
    or a level with no flag, before any is built; layer ranks are counted,
    not listed."""
    total = 0
    for i in range(1, cap + 1):
        n = layer_rank(rank, i)
        if n == 0:
            raise InputError(f"rank {rank} has no level-{i} flag, so class {cap} "
                             f"is out of reach; F_1 has class 1")
        total += n * n
        if total > MAX_FLAG_ENTRIES:
            raise InputError(f"flags on levels 1..{cap} of rank {rank} hold more than "
                             f"{MAX_FLAG_ENTRIES} entries")


def _check_levels(rank: int, cap: int, levels: Sequence[FlagOrdering]):
    _check_int("rank", rank)
    _check_int("class", cap)
    if rank < 1 or cap < 1:
        raise InputError(f"rank {rank} and class {cap}: both must be at least 1")
    if len(levels) != cap:
        raise DimensionMismatch(f"expected {cap} level flags, got {len(levels)}")
    _check_flag_entries(rank, cap)
    for i, flag in enumerate(levels, start=1):
        expected = layer_rank(rank, i)
        if flag.dimension != expected:
            raise DimensionMismatch(
                f"level {i} flag has dimension {flag.dimension}, expected {expected}")


@dataclass(frozen=True)
class StandardOrdering:
    """One flag ordering per lower-central level; bi-invariant by construction."""

    rank: int
    cap: int
    levels: tuple[FlagOrdering, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        _check_levels(self.rank, self.cap, levels)

    def sign(self, w: Word) -> int:
        """+1 or -1; raises DepthExceedsCap for words the cap cannot see."""
        if w.is_identity():
            raise EmptyWord("the identity has no sign")
        depth, coords = leading_coords(w, self.cap)
        value = _int_sign(self.levels[depth - 1], coords)
        if value == 0:
            raise CertificateError(f"flag gave sign 0 to the nonzero coordinates {coords}")
        return value

    def opposite(self) -> "StandardOrdering":
        return StandardOrdering(self.rank, self.cap,
                                tuple(flag_opposite(f) for f in self.levels))

    def to_json(self) -> dict:
        return {"rank": self.rank, "class": self.cap,
                "levels": [f.to_json() for f in self.levels]}

    @classmethod
    def from_json(cls, data) -> "StandardOrdering":
        return cls(data["rank"], data["class"],
                   tuple(FlagOrdering.from_json(f) for f in data["levels"]))


@lru_cache(maxsize=8)  # bounded: 8 keys of <= MAX_FLAG_ENTRIES entries; callers reuse 1-2
def identity_levels(rank: int, cap: int) -> tuple[FlagOrdering, ...]:
    """Identity flags on levels 1..cap; cached, since flags are immutable."""
    if rank < 1:
        raise InputError(f"rank {rank} is below 1")
    _check_flag_entries(rank, cap)
    return tuple(FlagOrdering.identity(layer_rank(rank, i))
                 for i in range(1, cap + 1))


def identity_ordering(rank: int, cap: int) -> StandardOrdering:
    """Lexicographic-through-basic-commutators ordering."""
    return StandardOrdering(rank, cap, identity_levels(rank, cap))


@dataclass(frozen=True)
class TwistedOrdering:
    """Left order separating words that share leading coordinates.

    ``pivot_coords`` is a primitive integer vector U on level ``pivot_level``;
    ``psi`` maps degree-``twist_degree`` monomials to rationals and must
    satisfy the orthogonality constraints described in the module docstring;
    ``from_json`` re-derives them, the constructor does not (use :func:`build_twisted`).

    A sign reads depth and leading part as :class:`StandardOrdering` does.
    With i the first nonzero index of U and c the pivot-level coordinates,
    the rows vanishing on U have the signs of u_i (u_i c_k - u_k c_i), and
    the dual of U reads c_i / u_i; the degree-j part is read only if needed.
    """

    rank: int
    cap: int
    pivot_level: int
    pivot_coords: tuple[int, ...]
    twist_degree: int
    psi: tuple[tuple[Monomial, Fraction], ...]
    alpha: Fraction
    levels: tuple[FlagOrdering, ...]

    def __post_init__(self):
        _check_levels(self.rank, self.cap, tuple(self.levels))
        _check_int("pivot_level", self.pivot_level)
        _check_int("twist_degree", self.twist_degree)
        d, j = self.pivot_level, self.twist_degree
        if not 1 <= d < j <= min(self.cap, 2 * d + 1):  # _twist_constraints stops at 2d + 1
            raise DimensionMismatch("need 1 <= pivot level d < twist degree <= min(cap, 2d + 1)")
        u = tuple(self.pivot_coords)
        for x in u:
            _check_int("a pivot coordinate", x)
        if len(u) != layer_rank(self.rank, d) or all(x == 0 for x in u):
            raise DimensionMismatch("pivot coordinates must be a nonzero level vector")
        object.__setattr__(self, "pivot_coords", u)
        object.__setattr__(self, "psi", tuple((tuple(m), Fraction(c))
                                              for m, c in self.psi))
        object.__setattr__(self, "alpha", Fraction(self.alpha))

    def sign(self, w: Word) -> int:
        """+1 or -1; raises DepthExceedsCap for words the cap cannot see."""
        if w.is_identity():
            raise EmptyWord("the identity has no sign")
        lead = leading_part(w, self.cap)
        if lead is None:
            raise DepthExceedsCap(f"word not visible at class cap {self.cap}")
        depth, part = lead
        d, j = self.pivot_level, self.twist_degree
        c = decompose_lie(self.rank, depth, part)
        if depth < d:
            return flag_sign(self.levels[depth - 1], c)
        s = Fraction(0)
        if depth == d:
            u = self.pivot_coords
            i = next(k for k, x in enumerate(u) if x)
            for k in range(len(u)):
                value = u[i] * (u[i] * c[k] - u[k] * c[i])
                if value:
                    return 1 if value > 0 else -1
            s = Fraction(c[i], u[i])
        part_j = part if depth == j else {} if depth > j else magnus_part(w, j)
        rho = self.alpha * s + sum(x * part_j.get(m, 0) for m, x in self.psi)
        if rho != 0:
            return 1 if rho > 0 else -1
        if s != 0:
            return 1 if s > 0 else -1
        # remaining words sit strictly below the pivot level: plain level scan
        return flag_sign(self.levels[depth - 1], c)

    def to_json(self) -> dict:
        return {
            "kind": "twisted",
            "rank": self.rank,
            "class": self.cap,
            "pivot_level": self.pivot_level,
            "pivot_coords": list(self.pivot_coords),
            "twist_degree": self.twist_degree,
            "psi": [[list(m), str(c)] for m, c in self.psi],
            "alpha": str(self.alpha),
            "levels": [f.to_json() for f in self.levels],
        }

    @classmethod
    def from_json(cls, data) -> "TwistedOrdering":
        o = cls(
            rank=data["rank"], cap=data["class"],
            pivot_level=data["pivot_level"],
            pivot_coords=tuple(data["pivot_coords"]),
            twist_degree=data["twist_degree"],
            psi=tuple((tuple(m), Fraction(c)) for m, c in data["psi"]),
            alpha=Fraction(data["alpha"]),
            levels=tuple(FlagOrdering.from_json(f) for f in data["levels"]),
        )
        for constraint in _twist_constraints(o.rank, o.pivot_level, o.pivot_coords,
                                             o.twist_degree):
            if sum(x * constraint.get(m, 0) for m, x in o.psi):  # as sign reads psi
                raise InputError("psi does not annihilate the twist constraints, so "
                                 "the twist row is not additive")
        return o


Ordering = StandardOrdering | TwistedOrdering


def ordering_from_json(data) -> Ordering:
    """An ordering from its ``to_json`` dict or that dict's JSON text."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        if data.get("kind") == "twisted":
            return TwistedOrdering.from_json(data)
        return StandardOrdering.from_json(data)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError, ParseError) as exc:
        raise ParseError(f"malformed ordering JSON: {exc!r}") from None


def compare(ordering: Ordering, g: Word, h: Word) -> int:
    """-1, 0, +1 for g < h, g = h, g > h."""
    q = g.inverse() * h
    if q.is_identity():
        return 0
    return -ordering.sign(q)


def pullback(quotient_levels: Sequence[FlagOrdering],
             tail: Sequence[FlagOrdering]) -> StandardOrdering:
    """Ordering agreeing with the quotient data wherever a word survives
    in the corresponding nilpotent quotient, completed by the tail flags."""
    levels = tuple(quotient_levels) + tuple(tail)
    if not levels:
        raise DimensionMismatch("pullback needs at least one level")
    rank = levels[0].dimension
    return StandardOrdering(rank, len(levels), levels)


# ---------------------------------------------------------------------------
# ball verification


@dataclass
class AxiomReport:
    radius: int
    words_checked: int
    totality_ok: bool = True
    antisymmetry_ok: bool = True
    closure_ok: bool = True
    conjugation_ok: bool = True
    skipped_words: int = 0
    skipped_pairs: int = 0
    counterexample: tuple | None = None

    @property
    def left_order_ok(self) -> bool:
        return self.totality_ok and self.antisymmetry_ok and self.closure_ok

    @property
    def passed(self) -> bool:
        return self.left_order_ok and self.conjugation_ok

    def summary(self) -> str:
        flags = [
            ("totality", self.totality_ok),
            ("antisymmetry", self.antisymmetry_ok),
            ("closure", self.closure_ok),
            ("conjugation", self.conjugation_ok),
        ]
        body = ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in flags)
        skips = f", skipped {self.skipped_words} words / {self.skipped_pairs} pairs" \
            if self.skipped_words or self.skipped_pairs else ""
        return f"radius {self.radius}: {body}{skips}"


def verify_cone_axioms(ordering: Ordering, radius: int) -> AxiomReport:
    """Exhaustively check the positive-cone axioms on a ball of reduced words.

    Checks totality, antisymmetry, closure of positives under products, and
    conjugation invariance by every generator.  Failures are recorded with a
    counterexample, not raised; words or pairs the class cap cannot decide
    are counted as skipped.

    Products and conjugates are formed on letter tuples; a Word is built,
    and signed by ``ordering.sign``, once per distinct word.
    """
    if radius < 1:
        raise InputError(f"radius must be at least 1, got {radius}")
    rank = ordering.rank
    # 2 * radius words at least, so a huge radius is refused before any power
    if 2 * radius > MAX_BALL_WORDS or ball_size(rank, radius) > MAX_BALL_WORDS:
        raise InputError(f"the radius-{radius} ball of rank {rank} holds more than "
                         f"{MAX_BALL_WORDS} words")
    # one sign per distinct word (products and conjugates repeat); None: too deep
    signs: dict[tuple[int, ...], int | None] = {}

    def sign_of(letters: tuple[int, ...]) -> int | None:
        if letters not in signs:
            try:
                signs[letters] = ordering.sign(_trusted(rank, letters))
            except DepthExceedsCap:
                signs[letters] = None
        return signs[letters]

    words = list(ball_words(rank, radius))
    report = AxiomReport(radius=radius, words_checked=len(words))
    report.skipped_words = sum(sign_of(w.letters) is None for w in words)
    for w in words:
        s = signs[w.letters]
        if s is None:
            continue
        if s not in (1, -1):
            report.totality_ok = False
            report.counterexample = report.counterexample or ("totality", str(w))
        s_inv = signs.get(w.inverse().letters)
        if s_inv is not None and s_inv != -s:
            report.antisymmetry_ok = False
            report.counterexample = report.counterexample or ("antisymmetry", str(w))
    positives = [w for w in words if signs[w.letters] == 1]
    for u in positives:
        for v in positives:
            p = reduced_product(u.letters, v.letters)
            if not p:
                report.closure_ok = False
                report.counterexample = report.counterexample or ("closure", str(u), str(v))
                continue
            s = sign_of(p)
            if s is None:
                report.skipped_pairs += 1
            elif s != 1:
                report.closure_ok = False
                report.counterexample = report.counterexample or ("closure", str(u), str(v))
    for w in words:
        s = signs[w.letters]
        if s is None:
            continue
        for i in range(1, rank + 1):
            s_conj = sign_of(reduced_product(reduced_product((i,), w.letters), (-i,)))
            if s_conj is None:
                report.skipped_pairs += 1
            elif s_conj != s:
                report.conjugation_ok = False
                report.counterexample = report.counterexample or \
                    ("conjugation", str(w), f"x{i}")
    return report


def ball_distance(o1: Ordering, o2: Ordering, r_max: int) -> int:
    """Largest r <= r_max on whose ball the two orderings agree entirely."""
    if o1.rank != o2.rank:
        raise DimensionMismatch("orderings live on different free groups")
    if r_max < 1:
        raise InputError(f"radius must be at least 1, got {r_max}")
    for w in ball_words(o1.rank, r_max):  # in order of length
        if o1.sign(w) != o2.sign(w):
            return len(w) - 1
    return r_max


# ---------------------------------------------------------------------------
# separation


def _word_with_coords(rank: int, level: int, coords: Sequence[int]) -> Word:
    """The level's basic commutators to the powers ``coords``; refused before any
    power is built past MAX_WORD_LETTERS letters, which JSON pivot coordinates reach."""
    factors = [(hall.bracket_word(rank, b), c)
               for b, c in zip(hall.basis_layer(rank, level), coords) if c]
    if sum(len(f) * abs(c) for f, c in factors) > MAX_WORD_LETTERS:
        raise InputError(f"the word with level-{level} coordinates {tuple(coords)} is "
                         f"longer than {MAX_WORD_LETTERS} letters")
    w = identity_word(rank)
    for f, c in factors:
        w = w * f ** c
    return w


def _lie_embedding(rank: int, level: int, coords: Sequence[int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for b, c in zip(hall.basis_layer(rank, level), coords):
        if not c:
            continue
        for m, x in hall.bracket_expansion(b).items():
            out[m] = out.get(m, 0) + c * x
    return out


def _twist_constraints(rank: int, d: int, u0: Sequence[int],
                       j: int) -> list[dict[Monomial, int]]:
    """Spanning vectors psi must annihilate for the twist row to be additive
    (and sign-antisymmetric) on the subgroup with level-d coordinates along u0.

    Degree-j coefficients of products and inverses of such elements deviate
    from additivity by concatenation products, one factor per part of a
    composition of j into parts >= d.  With P the pivot's Lie element: none
    for j < 2d, P * P for j = 2d, and for j = 2d + 1 P times a degree-(d+1)
    factor on either side, a Lie element or the part of a power of a word r
    realizing u0.  Those powers span H, the part of r, and P * P if d = 1.
    """
    if j > 2 * d + 1:
        raise DepthCapExceeded(
            f"twist at pivot level {d} supports degree <= {2 * d + 1}, needed {j}")
    if j < 2 * d:
        return []
    pivot = _lie_embedding(rank, d, u0)
    if j == 2 * d:
        return [concat(pivot, pivot)]
    lie = [hall.bracket_expansion(b) for b in hall.basis_layer(rank, d + 1)]
    # degree d+1 of mu(r^s) is s*H + C(s,2)*P*P when d = 1, else s*H
    realizer = _word_with_coords(rank, d, u0)
    factors = lie + [magnus_part(realizer, d + 1)]
    if d == 1:
        factors.append(concat(pivot, pivot))
    return [concat(pivot, v) for v in factors] + [concat(v, pivot) for v in factors]


def build_twisted(rank: int, cap: int, d: int, u0: Sequence[int], j: int,
                  z_part: dict[Monomial, int], mu_j_pivot: dict[Monomial, int],
                  sigma: Fraction) -> TwistedOrdering:
    """Twisted ordering whose twist row takes value +1/2 on the pivot element
    and -1/2 on pivot * z^-1, given the degree-j data of both.

    Raises DepthCapExceeded when no admissible psi separates z from the
    constraint space.
    """
    constraints = _twist_constraints(rank, d, u0, j) + [z_part]
    mons = sorted(set().union(*constraints))  # psi is 0 where no row reaches
    rows = [[c.get(m, 0) for m in mons] for c in constraints]
    solution = exactlin.solve_linear(rows, [0] * (len(rows) - 1) + [1])
    if solution is None:
        raise DepthCapExceeded(
            "difference word is not separable from the twist constraint space")
    psi = tuple((m, c) for m, c in zip(mons, solution) if c != 0)
    psi_on_pivot = sum((c * mu_j_pivot.get(m, 0) for m, c in psi), Fraction(0))
    alpha = (Fraction(1, 2) - psi_on_pivot) / sigma
    return TwistedOrdering(
        rank=rank, cap=cap, pivot_level=d, pivot_coords=tuple(u0),
        twist_degree=j, psi=psi, alpha=alpha, levels=identity_levels(rank, cap))


def _refuse_common_root(g: Word, k: Word) -> None:
    """Raise CommonRoot when g and k are positive powers of one root; such words
    have equal depth and proportional leading data, or are both beyond the cap."""
    shared = common_root(g, k)
    if shared is not None:
        root, powers = shared
        raise CommonRoot(f"both words are positive powers of {root}",
                         root=root, powers=powers) from None


def separate(g: Word, k: Word, cap: int = 5) -> Ordering:
    """An ordering with g positive and k negative, when one exists.

    Mirrors the constructive route: separate leading coordinates with a
    strict functional when possible; otherwise pass to powers with equal
    leading data and split on the depth where the powers diverge.  Raises
    CommonRoot when g and k are positive powers of one primitive root (no
    left ordering separates them) and DepthCapExceeded when the divergence
    is not visible within the cap or needs an unsupported twist shape.
    """
    if g.is_identity() or k.is_identity():
        raise EmptyWord("separation needs nonempty words")
    if g.rank != k.rank:
        raise DimensionMismatch("words live in different free groups")
    rank = g.rank
    try:
        dg, ug = leading_coords(g, cap)
        dk, uk = leading_coords(k, cap)
    except DepthExceedsCap:
        _refuse_common_root(g, k)
        raise DepthCapExceeded(f"word deeper than class cap {cap}") from None
    levels = list(identity_levels(rank, cap))
    if dg != dk:
        levels[dg - 1] = complete_flag(ug)
        levels[dk - 1] = complete_flag(tuple(-x for x in uk))
        ordering: Ordering = StandardOrdering(rank, cap, tuple(levels))
    else:
        ratio = positive_ratio(ug, uk)
        if ratio is None:
            f = strict_separator([ug], [uk])
            levels[dg - 1] = complete_flag(f)
            ordering = StandardOrdering(rank, cap, tuple(levels))
        else:
            _refuse_common_root(g, k)
            a, b = ratio.numerator, ratio.denominator
            if max(a, b) > POWER_BOUND:
                raise DepthCapExceeded(
                    f"power matching needs exponents beyond {POWER_BOUND}")
            big_g = g ** a
            big_k = k ** b
            w = big_g * big_k.inverse()
            if w.is_identity():
                raise CertificateError(f"g^{a} = k^{b} with no common power found")
            lead = leading_part(w, cap)
            if lead is None:
                raise DepthCapExceeded(
                    f"difference of matched powers is deeper than cap {cap}")
            j, z_part = lead
            # g^a has leading coordinates a * ug = a * e * u0 at depth dg
            e = math.gcd(*ug)
            u0 = tuple(c // e for c in ug)
            ordering = build_twisted(
                rank, cap, dg, u0, j, z_part=z_part,
                mu_j_pivot=magnus_part(big_g, j),
                sigma=Fraction(a * e))
    if ordering.sign(g) != 1 or ordering.sign(k) != -1:
        raise CertificateError(f"{type(ordering).__name__} fails to separate {g} from {k}")
    return ordering
