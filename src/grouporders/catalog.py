"""Named automorphisms of F_2 and F_3 with explicit inverses.

Used by the acceptance suite and handy for experiments: Nielsen
transvections, inversions, permutations, inner automorphisms and elementary
IA maps, plus seeded random products of the IA generators.
"""

from __future__ import annotations

import random

from .words import Automorphism, inner_automorphism, parse_endomorphism, parse_word

MAX_FACTORS = 3  # a random IA product composes 1 to MAX_FACTORS generators


def _aut(rank: int, forward: str, inverse: str) -> Automorphism:
    return Automorphism(parse_endomorphism(forward, rank),
                        parse_endomorphism(inverse, rank))


def automorphism_catalog() -> list[tuple[str, Automorphism]]:
    """At least twenty automorphisms across F_2 and F_3."""
    entries: list[tuple[str, Automorphism]] = []
    # F_2: Nielsen generators and friends
    entries.append(("swap(F2)", _aut(2, "x1 -> x2 ; x2 -> x1", "x1 -> x2 ; x2 -> x1")))
    entries.append(("invert_x1(F2)", _aut(2, "x1 -> x1^-1", "x1 -> x1^-1")))
    entries.append(("invert_x2(F2)", _aut(2, "x2 -> x2^-1", "x2 -> x2^-1")))
    entries.append(("right_transvection(F2)", _aut(2, "x1 -> x1 x2", "x1 -> x1 x2^-1")))
    entries.append(("left_transvection(F2)", _aut(2, "x1 -> x2 x1", "x1 -> x2^-1 x1")))
    entries.append(("inverse_transvection(F2)", _aut(2, "x1 -> x1 x2^-1", "x1 -> x1 x2")))
    entries.append(("transvection_on_x2(F2)", _aut(2, "x2 -> x2 x1", "x2 -> x2 x1^-1")))
    entries.append(("twist(F2)", _aut(2, "x1 -> x1 x2 ; x2 -> x2 x1 x2",
                                      "x1 -> x1^2 x2^-1 ; x2 -> x2 x1^-1")))
    for name, conj in [("inner_x1(F2)", "x1"), ("inner_x2(F2)", "x2"),
                       ("inner_x1x2(F2)", "x1 x2"), ("inner_x1inv(F2)", "x1^-1")]:
        entries.append((name, inner_automorphism(parse_word(conj, 2))))
    # F_3: permutations, transvections, inversions
    entries.append(("cycle(F3)", _aut(3, "x1 -> x2 ; x2 -> x3 ; x3 -> x1",
                                      "x1 -> x3 ; x2 -> x1 ; x3 -> x2")))
    entries.append(("swap12(F3)", _aut(3, "x1 -> x2 ; x2 -> x1", "x1 -> x2 ; x2 -> x1")))
    entries.append(("invert_x1(F3)", _aut(3, "x1 -> x1^-1", "x1 -> x1^-1")))
    entries.append(("transvection_13(F3)", _aut(3, "x1 -> x1 x3", "x1 -> x1 x3^-1")))
    entries.append(("transvection_31(F3)", _aut(3, "x3 -> x1 x3", "x3 -> x1^-1 x3")))
    for name, conj in [("inner_x1(F3)", "x1"), ("inner_x3(F3)", "x3"),
                       ("inner_x2x3(F3)", "x2 x3")]:
        entries.append((name, inner_automorphism(parse_word(conj, 3))))
    # F_3: elementary IA maps (trivial on the abelianization, not inner)
    entries.append(("ia_commutator_1(F3)",
                    _aut(3, "x1 -> x1 x2 x3 x2^-1 x3^-1", "x1 -> x1 x3 x2 x3^-1 x2^-1")))
    entries.append(("ia_commutator_2(F3)",
                    _aut(3, "x2 -> x2 x3 x1 x3^-1 x1^-1", "x2 -> x2 x1 x3 x1^-1 x3^-1")))
    entries.append(("ia_partial_conj(F3)",
                    _aut(3, "x1 -> x2 x1 x2^-1", "x1 -> x2^-1 x1 x2")))
    # composite: inner after elementary IA
    ia = _aut(3, "x1 -> x1 x2 x3 x2^-1 x3^-1", "x1 -> x1 x3 x2 x3^-1 x2^-1")
    entries.append(("inner_x1_after_ia(F3)",
                    inner_automorphism(parse_word("x1", 3)).compose(ia)))
    return entries


def ia_generators(rank: int) -> list[Automorphism]:
    """Inner automorphisms by generators plus elementary IA maps."""
    gens: list[Automorphism] = []
    for i in range(1, rank + 1):
        gens.append(inner_automorphism(parse_word(f"x{i}", rank)))
        gens.append(inner_automorphism(parse_word(f"x{i}^-1", rank)))
    if rank >= 3:
        for i, j, k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
            gens.append(_aut(
                rank,
                f"x{i} -> x{i} x{j} x{k} x{j}^-1 x{k}^-1",
                f"x{i} -> x{i} x{k} x{j} x{k}^-1 x{j}^-1"))
    if rank >= 2:
        # partial conjugations are IA in every rank
        for i in range(1, rank + 1):
            j = 1 + (i % rank)
            gens.append(_aut(rank, f"x{i} -> x{j} x{i} x{j}^-1",
                             f"x{i} -> x{j}^-1 x{i} x{j}"))
    return gens


def random_ia_product(rank: int, rng: random.Random) -> Automorphism:
    pool = ia_generators(rank)
    factors = rng.randint(1, MAX_FACTORS)
    result = rng.choice(pool)
    for _ in range(factors - 1):
        result = result.compose(rng.choice(pool))
    return result
