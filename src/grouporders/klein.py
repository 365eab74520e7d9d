"""The Klein bottle group: normal forms, its four left orderings, Aut and Out.

Elements are normal forms x^a y^b for the presentation with the relation
x^-1 y x = y^-1, so multiplication twists the y-exponent by the parity of
the x-exponent passing it.  The group carries exactly four left-invariant
orderings (two choices of dominant x-direction, two for the fiber); none of
them is bi-invariant since conjugation by x inverts y.  Both facts are
re-derived here by exhaustive search rather than assumed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import CertificateError, IdentityElement, InputError, NonAutomorphism, ParseError


@dataclass(frozen=True)
class KleinElement:
    a: int
    b: int

    def __mul__(self, other: "KleinElement") -> "KleinElement":
        sign = -1 if other.a % 2 else 1
        return KleinElement(self.a + other.a, sign * self.b + other.b)

    def inverse(self) -> "KleinElement":
        sign = -1 if self.a % 2 else 1
        return KleinElement(-self.a, -sign * self.b)

    def __pow__(self, n: int) -> "KleinElement":
        # for odd a the y-parts of consecutive factors cancel in pairs
        if self.a % 2 == 0:
            return KleinElement(n * self.a, n * self.b)
        return KleinElement(n * self.a, self.b if n % 2 else 0)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.is_identity():
            return "1"
        parts = []
        if self.a:
            parts.append("x" + (f"^{self.a}" if self.a != 1 else ""))
        if self.b:
            parts.append("y" + (f"^{self.b}" if self.b != 1 else ""))
        return " ".join(parts)


_KLEIN_TOKEN = re.compile(r"^([xy])(?:\^(-?\d+))?$")


def parse_klein(text: str) -> KleinElement:
    """Parse a word in x, y (e.g. ``x^2 y^-1`` or ``y x y``) to normal form."""
    result = KleinElement(0, 0)
    for token in text.split():
        if token == "1":
            continue
        m = _KLEIN_TOKEN.match(token)
        if not m:
            raise ParseError(f"bad Klein bottle token {token!r}")
        power = int(m.group(2)) if m.group(2) is not None else 1
        base = KleinElement(1, 0) if m.group(1) == "x" else KleinElement(0, 1)
        result = result * base ** power
    return result


@dataclass(frozen=True)
class KleinOrdering:
    """Positive cone {a > 0} or {a = 0, b > 0} up to the two sign choices."""

    eps: int
    delta: int

    def __post_init__(self):
        if self.eps not in (1, -1) or self.delta not in (1, -1):
            raise InputError("eps and delta must be +-1")
        _verify_cone(self)

    def sign(self, p: KleinElement) -> int:
        if p.is_identity():
            raise IdentityElement("the identity has no sign")
        if p.a != 0:
            return 1 if self.eps * p.a > 0 else -1
        return 1 if self.delta * p.b > 0 else -1

    def opposite(self) -> "KleinOrdering":
        return KleinOrdering(-self.eps, -self.delta)

    def __str__(self) -> str:
        return f"({'+' if self.eps > 0 else '-'},{'+' if self.delta > 0 else '-'})"


def _ball(radius: int) -> list[KleinElement]:
    return [KleinElement(a, b)
            for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1)
            if (a, b) != (0, 0)]


def _cone_axioms_hold(ordering: KleinOrdering, radius: int) -> bool:
    ball = _ball(radius)
    for p in ball:
        if ordering.sign(p) not in (1, -1):
            return False
        if ordering.sign(p.inverse()) != -ordering.sign(p):
            return False
    positives = [p for p in ball if ordering.sign(p) == 1]
    for p in positives:
        for q in positives:
            r = p * q
            if r.is_identity() or ordering.sign(r) != 1:
                return False
    return True


@lru_cache(maxsize=None)  # bounded: the four Klein cones, each value None
def _verify_cone(ordering: KleinOrdering) -> None:
    """The radius-3 cone-axiom check, once per (eps, delta) per process."""
    if not _cone_axioms_hold(ordering, 3):
        raise CertificateError(f"cone {ordering} fails the axioms on the radius-3 ball")


def k_enumerate_orderings() -> list[KleinOrdering]:
    """The four left orderings, each re-verified on a ball at construction."""
    return [KleinOrdering(eps, delta) for eps in (1, -1) for delta in (1, -1)]


@dataclass(frozen=True)
class KleinAut:
    """Automorphism given by normal-form images of x and y."""

    image_x: KleinElement
    image_y: KleinElement

    def __post_init__(self):
        # defining relation must be preserved
        lhs = self.image_x.inverse() * self.image_y * self.image_x
        if lhs != self.image_y.inverse():
            raise NonAutomorphism("images do not satisfy the defining relation")
        # the automorphisms are exactly x -> x^eps y^m, y -> y^delta
        if abs(self.image_x.a) != 1 or self.image_y.a != 0 or abs(self.image_y.b) != 1:
            raise NonAutomorphism("images do not generate the group")

    def apply(self, p: KleinElement) -> KleinElement:
        return self.image_x ** p.a * self.image_y ** p.b

    def inverse(self) -> "KleinAut":
        """x -> x^eps y^(-delta m), y -> y^delta, checked by composing both ways."""
        delta = self.image_y.b
        inv = KleinAut(KleinElement(self.image_x.a, -delta * self.image_x.b), self.image_y)
        if not (self.compose(inv).is_identity() and inv.compose(self).is_identity()):
            raise CertificateError(f"constructed inverse of {self} does not invert it")
        return inv

    def compose(self, other: "KleinAut") -> "KleinAut":
        return KleinAut(self.apply(other.image_x), self.apply(other.image_y))

    def is_identity(self) -> bool:
        return self.image_x == KleinElement(1, 0) and self.image_y == KleinElement(0, 1)

    def __str__(self) -> str:
        return f"x -> {self.image_x} ; y -> {self.image_y}"


def parse_klein_aut(text: str) -> KleinAut:
    images = {"x": KleinElement(1, 0), "y": KleinElement(0, 1)}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "->" not in clause:
            raise ParseError(f"clause {clause!r} lacks '->'")
        lhs, rhs = clause.split("->", 1)
        lhs = lhs.strip()
        if lhs not in ("x", "y"):
            raise ParseError("left sides must be x or y")
        images[lhs] = parse_klein(rhs)
    return KleinAut(images["x"], images["y"])


def identity_aut() -> KleinAut:
    return KleinAut(KleinElement(1, 0), KleinElement(0, 1))


def inner_by(c: KleinElement) -> KleinAut:
    return KleinAut(c * KleinElement(1, 0) * c.inverse(),
                    c * KleinElement(0, 1) * c.inverse())


def alpha1() -> KleinAut:
    return KleinAut(KleinElement(1, 1), KleinElement(0, 1))


def alpha2() -> KleinAut:
    return KleinAut(KleinElement(1, -1), KleinElement(0, 1))


def alpha3() -> KleinAut:
    return KleinAut(KleinElement(-1, 0), KleinElement(0, -1))


def k_pull(phi: KleinAut, ordering: KleinOrdering) -> KleinOrdering:
    """The ordering judging p the way ``ordering`` judges phi(p).

    The result is always one of the four cones; matching on the images of x
    and y is verified against a ball sample once per (phi, ordering).
    """
    eps = ordering.sign(phi.apply(KleinElement(1, 0)))
    delta = ordering.sign(phi.apply(KleinElement(0, 1)))
    pulled = KleinOrdering(eps, delta)
    _verify_pull(phi, ordering, pulled)
    return pulled


@lru_cache(maxsize=1024)  # bounded: 1024 keys, since phi can come from user input
def _verify_pull(phi: KleinAut, ordering: KleinOrdering, pulled: KleinOrdering) -> None:
    """The radius-3 check of a pull; ``pulled`` is fixed by (phi, ordering)."""
    if any(pulled.sign(p) != ordering.sign(phi.apply(p)) for p in _ball(3)):
        raise CertificateError(f"pulling {ordering} through {phi} does not give {pulled}")


def is_inner(phi: KleinAut) -> KleinElement | None:
    """A conjugator c with phi = conjugation by c, or None when phi is outer.

    Conjugation by x^a y^b sends x -> x y^(-2 b (-1)^a) and y -> y^((-1)^a),
    so x -> x^e y^m, y -> y^d is inner exactly when e = 1 and m is even; the
    conjugator is then x^a y^(-d m / 2) with (-1)^a = d, unique up to the
    centre <x^2>.
    """
    e, m = phi.image_x.a, phi.image_x.b
    d = phi.image_y.b
    if e != 1 or m % 2:
        return None
    c = KleinElement(0 if d == 1 else 1, -d * m // 2)
    if inner_by(c) != phi:
        raise CertificateError(f"conjugation by {c} does not give {phi}")
    return c


@dataclass
class OutTable:
    """Out(K) with its action on the four orderings."""

    class_names: tuple[str, ...]
    multiplication: dict[tuple[str, str], str]
    actions: dict[str, tuple[int, ...]]  # permutation of ordering indices
    action_kernel: tuple[str, ...]
    inner_fixing_everything: KleinElement
    conjugacy_orbits: tuple[tuple[int, ...], ...]

    @property
    def is_klein_four_group(self) -> bool:
        names = self.class_names
        if len(names) != 4:
            return False
        e = names[0]
        return all(self.multiplication[(n, n)] == e for n in names) and \
            all(self.multiplication[(a, b)] == self.multiplication[(b, a)]
                for a in names for b in names)

    @property
    def faithful_on_orderings(self) -> bool:
        return len(self.action_kernel) <= 1


def k_out_table() -> OutTable:
    """Certify the structure of Out(K) and its action on the four orderings.

    Produces the Klein four-group table of outer classes, each class's
    permutation of the orderings, the kernel of that action, and a
    nontrivial inner automorphism fixing every ordering (so neither Aut nor
    Out acts faithfully).
    """
    orderings = k_enumerate_orderings()
    reps = {"1": identity_aut(), "a1": alpha1(), "a3": alpha3(),
            "a1a3": alpha1().compose(alpha3())}
    names = tuple(reps)
    # distinct outer classes: representatives pairwise non-inner-related
    for m in names:
        for n in names:
            if m != n and is_inner(reps[m].compose(reps[n].inverse())) is not None:
                raise CertificateError(f"representatives {m} and {n} share an outer class")
    multiplication = {}
    for m in names:
        for n in names:
            prod = reps[m].compose(reps[n])
            matches = [c for c in names
                       if is_inner(prod.compose(reps[c].inverse())) is not None]
            if len(matches) != 1:
                raise CertificateError(f"{m} * {n} lies in the outer classes {matches}")
            multiplication[(m, n)] = matches[0]
    actions = {}
    for name in names:
        perm = []
        for ordering in orderings:
            pulled = k_pull(reps[name], ordering)
            perm.append(orderings.index(pulled))
        actions[name] = tuple(perm)
    kernel = tuple(n for n in names if actions[n] == tuple(range(4)))
    conj_y = inner_by(KleinElement(0, 1))
    if conj_y.is_identity() or any(k_pull(conj_y, o) != o for o in orderings):
        raise CertificateError("conjugation by y must be nontrivial and fix every cone")
    # conjugation orbits of the cones: each cone and its pulls by x and y,
    # closed to a fixed point; disjoint, so sorted by smallest index
    step = [{idx} | {orderings.index(k_pull(inner_by(c), ordering))
                     for c in (KleinElement(1, 0), KleinElement(0, 1))}
            for idx, ordering in enumerate(orderings)]
    orbits = set()
    for orbit in step:
        while (grown := orbit.union(*(step[i] for i in orbit))) != orbit:
            orbit = grown
        orbits.add(tuple(sorted(orbit)))
    return OutTable(
        class_names=names,
        multiplication=multiplication,
        actions=actions,
        action_kernel=kernel,
        inner_fixing_everything=KleinElement(0, 1),
        conjugacy_orbits=tuple(sorted(orbits)),
    )


def survey_ball_orderings(inner_radius: int = 3, outer_radius: int = 5) -> tuple[int, int]:
    """Count sign assignments consistent on the inner ball, and how many of
    those extend to the outer ball.

    An assignment is consistent when it is total, antisymmetric, and closed
    under in-ball products of positives.  The extendable count is the
    independent check that the group has exactly four left orderings at
    this scale.
    """
    inner_solutions = _consistent_assignments(_ball(inner_radius), {})
    extendable = 0
    outer = _ball(outer_radius)
    for solution in inner_solutions:
        if _consistent_assignments(outer, solution, first_only=True):
            extendable += 1
    return len(inner_solutions), extendable


def _consistent_assignments(ball: list[KleinElement], seed: dict,
                            first_only: bool = False) -> list[dict]:
    index = {(p.a, p.b) for p in ball}
    order = sorted(ball, key=lambda p: (abs(p.a) + abs(p.b), p.a, p.b))
    solutions: list[dict] = []

    def propagate(signs: dict, queue: list) -> bool:
        while queue:
            key, value = queue.pop()
            current = signs.get(key)
            if current is not None:
                if current != value:
                    return False
                continue
            signs[key] = value
            p = KleinElement(*key)
            inv = p.inverse()
            if (inv.a, inv.b) in index:
                queue.append(((inv.a, inv.b), -value))
            if value == 1:
                partners = [KleinElement(*k) for k, v in signs.items() if v == 1]
                for q in partners:
                    for r in (p * q, q * p):
                        if (r.a, r.b) in index:
                            queue.append(((r.a, r.b), 1))
        return True

    def search(signs: dict) -> bool:
        unassigned = next((p for p in order if (p.a, p.b) not in signs), None)
        if unassigned is None:
            solutions.append(dict(signs))
            return True
        for value in (1, -1):
            trial = dict(signs)
            if propagate(trial, [((unassigned.a, unassigned.b), value)]):
                if search(trial) and first_only:
                    return True
        return bool(solutions) if first_only else False

    start: dict = {}
    if not propagate(start, [(k, v) for k, v in seed.items()]):
        return []
    search(start)
    return solutions
