"""The acceptance suite as callable checks with one pass/fail line each.

Each criterion function returns a :class:`CriterionResult`; the pytest
acceptance module and the ``report`` CLI subcommand both run these, so
there is a single source of truth for what "done" means.  All randomness
is drawn from an explicit seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import catalog
from .autact import boundary_separation, common_power, ordering_witness, primitive_root
from .errors import (CommonRoot, DepthCapExceeded, DimensionMismatch, IdentityAutomorphism,
                     InputError, NoCone)
from .exactlin import Halfspace, ZeroCombo, classify_cone, vector
from .hall import (basis_layer, bracket_word, coords_at_level, identity_matrix, induced_matrix,
                   layer_rank, lyndon_words)
from .klein import (KleinElement, alpha1, inner_by, is_inner, k_enumerate_orderings,
                    k_out_table, k_pull)
from .series import magnus
from .stdord import StandardOrdering, TwistedOrdering, separate, verify_cone_axioms
from .words import Endomorphism, ball_words, word
from .znord import FlagOrdering, IntegerAutomorphism, flag_sign, gl_witness, realize_flag

DEFAULT_SEED = 20250811


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.detail}; {self.seconds:.2f}s)"


def _timed(number: int, name: str, run: Callable[[], tuple[bool, str]],
           budget: float | None = None) -> CriterionResult:
    """Run one criterion; a pass that takes ``budget`` seconds or more fails."""
    start = time.perf_counter()
    try:
        passed, detail = run()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"exception: {exc!r}"
    seconds = time.perf_counter() - start
    if passed and budget is not None and seconds >= budget:
        passed, detail = False, f"{detail}; exceeded {budget:g}s budget"
    return CriterionResult(number, name, passed, detail, seconds)


def _random_gl(rng: random.Random, n: int) -> IntegerAutomorphism:
    while True:
        entries = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        try:
            a = IntegerAutomorphism(entries)
        except DimensionMismatch:  # a draw of determinant other than +-1
            continue
        if not a.is_identity():
            return a


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed)
        checked = 0
        for n in (2, 3):
            for _ in range(100):
                a = _random_gl(rng, n)
                flag, v = gl_witness(a)
                if flag_sign(flag, v) == flag_sign(flag, a.apply(v)):
                    return False, f"unverified witness for {a.entries}"
                checked += 1
        return True, f"{checked} random GL witnesses verified"
    return _timed(1, "GL faithfulness on flag orderings", run, budget=5)


def _random_vector_sets(rng: random.Random, count: int):
    sets = []
    for _ in range(count):
        n = rng.choice((2, 3))
        m = rng.randint(3, 5)
        vs = []
        while len(vs) < m:
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            if any(v):
                vs.append(v)
        sets.append(vs)
    return sets


def _brute_force_zero_combo(vs, max_sum: int = 8) -> bool:
    """True iff some nonnegative combination with coefficient sum <= max_sum
    vanishes.  Independent of the certificate search."""
    m = len(vs)
    n = len(vs[0])
    for total in range(1, max_sum + 1):
        for cut in itertools.combinations(range(total + m - 1), m - 1):
            coeffs = []
            prev = -1
            for c in cut:
                coeffs.append(c - prev - 1)
                prev = c
            coeffs.append(total + m - 2 - prev)
            acc = [0] * n
            for c, v in zip(coeffs, vs):
                for i in range(n):
                    acc[i] += c * v[i]
            if all(x == 0 for x in acc):
                return True
    return False


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed + 2)
        for vs in _random_vector_sets(rng, 500):
            cert = classify_cone(vs)
            rational = [vector(v) for v in vs]
            if isinstance(cert, Halfspace):
                if not cert.strict_for(rational):
                    return False, f"non-strict half-space for {vs}"
                if _brute_force_zero_combo(vs):
                    return False, f"half-space despite zero combination for {vs}"
            else:
                if not cert.holds_for(rational):
                    return False, f"bad zero combination for {vs}"
        return True, "500 random cones, certificates verified both ways"
    return _timed(2, "half-space vs zero-combination dichotomy", run)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed + 2)  # same sets as criterion 2
        for vs in _random_vector_sets(rng, 500):
            cert = classify_cone(vs)
            try:
                flag = realize_flag(vs)
            except NoCone:
                if isinstance(cert, Halfspace):
                    return False, f"realize failed despite half-space for {vs}"
                continue
            if isinstance(cert, ZeroCombo):
                return False, f"realize succeeded despite zero combination for {vs}"
            if any(flag_sign(flag, v) != 1 for v in vs):
                return False, f"realized flag not positive on {vs}"
        return True, "realize_flag agrees with the dichotomy on 500 sets"
    return _timed(3, "density realization", run)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed + 4)
        alphabet = [1, -1, 2, -2]
        for _ in range(200):
            u = word(2, [rng.choice(alphabet) for _ in range(rng.randint(0, 6))])
            v = word(2, [rng.choice(alphabet) for _ in range(rng.randint(0, 6))])
            if magnus(u * v, 5) != magnus(u, 5) * magnus(v, 5):
                return False, f"homomorphism failure at {u} * {v}"
        for w in ball_words(2, 4):
            if magnus(w, 5).is_one():
                return False, f"nontrivial word {w} invisible at class 5"
        expected = (2, 1, 2, 3, 6)
        got = tuple(len(lyndon_words(2, i)) for i in range(1, 6))
        if got != expected:
            return False, f"basis ranks {got} != {expected}"
        # independent oracle: count necklaces via rotation-minimal strings
        for weight, target in zip(range(1, 6), expected):
            count = 0
            for s in itertools.product((1, 2), repeat=weight):
                rotations = [s[i:] + s[:i] for i in range(1, weight)]
                if all(s < r for r in rotations):
                    count += 1
            if count != target:
                return False, f"necklace count at weight {weight} is {count}"
        return True, "homomorphism x200, ball-4 injectivity, ranks 2,1,2,3,6"
    return _timed(4, "series embedding soundness", run)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed + 5)
        for trial in range(50):
            rank = 2 if trial % 2 == 0 else 3
            phi = catalog.random_ia_product(rank, rng)
            for level in range(1, 5):
                identity = identity_matrix(layer_rank(rank, level))
                if induced_matrix(phi.forward, level) != identity:
                    return False, f"trial {trial}: nontrivial action at level {level}"
                # the Lie-power matrix is trivial by construction; the words' series are not
                words = tuple(zip(*(coords_at_level(phi.apply(bracket_word(rank, b)), level)
                                    for b in basis_layer(rank, level))))
                if words != identity:
                    return False, f"trial {trial}: image words move level {level}"
        return True, "50 random IA products trivial at levels 1..4, as Lie powers and as words"
    return _timed(5, "IA maps act trivially on every quotient", run)


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        entries = catalog.automorphism_catalog()
        if len(entries) < 20:
            return False, f"catalog has only {len(entries)} entries"
        twisted = 0
        for name, phi in entries:
            witness = ordering_witness(phi, 5)
            before = witness.ordering.sign(witness.word)
            after = witness.ordering.sign(phi.apply(witness.word))
            if before == after or (before, after) != (witness.sign_before, witness.sign_after):
                return False, f"unverified witness for {name}"
            if isinstance(witness.ordering, TwistedOrdering):
                twisted += 1
        try:
            ordering_witness(Endomorphism.identity(2))
            return False, "identity not rejected"
        except IdentityAutomorphism:
            pass
        return True, f"{len(entries)} catalog witnesses verified ({twisted} twisted)"
    return _timed(6, "ordering-action witnesses for the catalog", run, budget=60)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        words = list(ball_words(2, 3))
        outcomes = {"separated": 0, "common_root": 0}
        for g, k in itertools.permutations(words, 2):
            roots_equal = primitive_root(g).root == primitive_root(k).root
            try:
                ordering = separate(g, k, 5)
            except CommonRoot:
                if not roots_equal:
                    return False, f"spurious CommonRoot for ({g}, {k})"
                outcomes["common_root"] += 1
                continue
            except DepthCapExceeded:
                return False, f"cap exceeded for ({g}, {k})"
            if roots_equal:
                return False, f"separated a common-root pair ({g}, {k})"
            if ordering.sign(g) != 1 or ordering.sign(k) != -1:
                return False, f"unverified separation for ({g}, {k})"
            outcomes["separated"] += 1
        return True, (f"{outcomes['separated']} pairs separated, "
                      f"{outcomes['common_root']} common roots, no cap failures")
    return _timed(7, "separation over the radius-3 ball", run)


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        rng = random.Random(seed + 8)
        for trial in range(10):
            ordering = random_standard_ordering(2, 5, rng)
            report = verify_cone_axioms(ordering, 3)
            if not report.passed or report.skipped_words or report.skipped_pairs:
                return False, f"trial {trial}: {report.summary()}"
        return True, "10 random standard orderings pass all axioms at radius 3"
    return _timed(8, "cone axioms on random standard orderings", run)


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        for name, phi in catalog.automorphism_catalog():
            g = boundary_separation(phi)
            if common_power(g, phi.apply(g)) is not None:
                return False, f"bad boundary certificate for {name}"
        return True, "boundary certificates for every catalog automorphism"
    return _timed(9, "boundary separation certificates", run)


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    def run():
        orderings = k_enumerate_orderings()
        if len(orderings) != 4:
            return False, f"{len(orderings)} orderings"
        table = k_out_table()
        if not table.is_klein_four_group:
            return False, "Out(K) table is not Z/2 x Z/2"
        if table.actions["a1"] != (0, 1, 2, 3):
            return False, "alpha_1 does not fix the four orderings"
        if is_inner(alpha1()) is not None:
            return False, "alpha_1 reported inner"
        conj_y = inner_by(KleinElement(0, 1))
        if conj_y.is_identity() or any(k_pull(conj_y, o) != o for o in orderings):
            return False, "conjugation by y does not fix the orderings"
        if table.faithful_on_orderings:
            return False, "action kernel unexpectedly trivial"
        return True, ("4 verified orderings, Out(K) = Z/2 x Z/2, "
                      f"kernel {table.action_kernel}")
    return _timed(10, "Klein bottle suite", run, budget=2)


def random_standard_ordering(rank: int, cap: int, rng: random.Random) -> StandardOrdering:
    levels = []
    for level in range(1, cap + 1):
        dim = layer_rank(rank, level)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            try:
                levels.append(FlagOrdering(rows))
                break
            except DimensionMismatch:  # a singular draw
                continue
    return StandardOrdering(rank, cap, tuple(levels))


ALL_CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(seed: int = DEFAULT_SEED, only: int | None = None) -> list[CriterionResult]:
    if only is not None and not 1 <= only <= len(ALL_CRITERIA):
        raise InputError(f"criterion {only} outside 1..{len(ALL_CRITERIA)}")
    selected = ALL_CRITERIA if only is None else (ALL_CRITERIA[only - 1],)
    return [c(seed) for c in selected]
