import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grouporders.errors import EmptyInput, InputError, NoSeparator, ZeroVectorInput
from grouporders.exactlin import (MAX_CONE_SUBSETS, Halfspace, ZeroCombo, _int_row,
                                  classify_cone, dot, int_det, kernel_basis, matrix, rank,
                                  scale_to_integers, solve_inequalities, solve_linear,
                                  strict_separator, vector)


def test_kernel_of_identity_is_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_of_single_row():
    (v,) = kernel_basis([[1, 1]])
    assert v[0] * 1 + v[1] * 1 == 0
    assert v != (0, 0)


def test_kernel_two_by_three():
    (v,) = kernel_basis([[1, 0, 1], [0, 1, 1]])
    # proportional to (1, 1, -1)
    scale = v[2] / Fraction(-1)
    assert v == (scale, scale, -scale)
    for row in matrix([[1, 0, 1], [0, 1, 1]]):
        assert dot(row, v) == 0


def test_kernel_count_matches_rank_deficit():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert len(kernel_basis(m)) == 3 - rank(m)


def test_classify_positive_quadrant():
    cert = classify_cone([(1, 0), (0, 1)])
    assert cert == Halfspace(vector([1, 1]))


def test_classify_antipodal_pair():
    assert classify_cone([(1, 0), (-1, 0)]) == ZeroCombo((1, 1))


def test_classify_triangle():
    vs = [(1, 0), (-1, 1), (0, -1)]
    cert = classify_cone(vs)
    assert cert == ZeroCombo((1, 1, 1))
    # brute-force oracle: some nonnegative combination with small sum vanishes
    assert _brute_zero_combo(vs, 6)


def _brute_zero_combo(vs, max_sum):
    for coeffs in itertools.product(range(max_sum + 1), repeat=len(vs)):
        if not any(coeffs) or sum(coeffs) > max_sum:
            continue
        total = [sum(c * v[i] for c, v in zip(coeffs, vs)) for i in range(len(vs[0]))]
        if all(x == 0 for x in total):
            return True
    return False


def test_classify_rejects_bad_input():
    with pytest.raises(EmptyInput):
        classify_cone([])
    with pytest.raises(ZeroVectorInput):
        classify_cone([(0, 0)])


small_vectors = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: any(v)),
    min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(small_vectors)
def test_classify_certificate_always_verifies(vs):
    cert = classify_cone(vs)
    rational = [vector(v) for v in vs]
    if isinstance(cert, Halfspace):
        assert cert.strict_for(rational)
        # Gordan: a strict functional excludes any vanishing combination
        assert not _brute_zero_combo(vs, 6)
    else:
        assert cert.holds_for(rational)


def test_separator_antipodal():
    f = strict_separator([(1, 0)], [(-1, 0)])
    assert dot(f, (1, 0)) > 0 > dot(f, (-1, 0))


def test_separator_example_value():
    f = strict_separator([(1, 0)], [(1, 1)])
    assert dot(f, (1, 0)) > 0 > dot(f, (1, 1))
    # deterministic: same output on repeat
    assert f == strict_separator([(1, 0)], [(1, 1)])


def test_separator_rejects_positive_ray():
    with pytest.raises(NoSeparator):
        strict_separator([(1, 0)], [(2, 0)])


@settings(max_examples=100, deadline=None)
@given(small_vectors, small_vectors)
def test_separator_output_verified(pos, neg):
    try:
        f = strict_separator(pos, neg)
    except NoSeparator:
        return
    assert all(dot(f, p) > 0 for p in pos)
    assert all(dot(f, q) < 0 for q in neg)


def _reference_fm_eliminate(constraints, var):
    """Fourier-Motzkin as it stood before the single-loop rewrite: one system per step."""
    lowers, uppers, rest = [], [], []
    for coeffs, b in constraints:
        c = coeffs[var]
        if c > 0:
            lowers.append((coeffs, b))
        elif c < 0:
            uppers.append((coeffs, b))
        else:
            rest.append((coeffs, b))
    for lc, lb in lowers:
        for uc, ub in uppers:
            scale_l = -uc[var]
            scale_u = lc[var]
            coeffs = tuple(scale_l * a + scale_u * b2 for a, b2 in zip(lc, uc))
            rest.append((coeffs[:var] + (Fraction(0),) + coeffs[var + 1:],
                         scale_l * lb + scale_u * ub))
    seen = set()
    out = []
    for coeffs, b in rest:
        key = (coeffs, b)
        if key not in seen:
            seen.add(key)
            out.append((coeffs, b))
    return out


def _reference_solve_inequalities(constraints, nvars):
    """Stores every intermediate system and splits each one again to back-substitute."""
    systems = [list(constraints)]
    for var in range(nvars - 1, -1, -1):
        systems.append(_reference_fm_eliminate(systems[-1], var))
    final = systems[-1]
    if any(b > 0 for _, b in final):
        return None
    values = [Fraction(0)] * nvars
    for var in range(nvars):
        system = systems[nvars - 1 - var]
        lowers, uppers = [], []
        for coeffs, b in system:
            c = coeffs[var]
            if c == 0:
                continue
            residual = b - sum(coeffs[i] * values[i] for i in range(var))
            bound = residual / c
            (lowers if c > 0 else uppers).append(bound)
        if lowers:
            values[var] = max(lowers)
        elif uppers:
            values[var] = min(uppers)
        else:
            values[var] = Fraction(0)
    return tuple(values)


# zero often, so six dense constraints in six variables (a slow blow-up) stay rare
_fm_entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                        st.fractions(-3, 3, max_denominator=4))
_fm_systems = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.tuples(*[_fm_entries] * n), _fm_entries), min_size=1, max_size=6),
    st.just(n)))


@settings(max_examples=200, deadline=None)
@given(_fm_systems)
@example(([((Fraction(1),), Fraction(1)), ((Fraction(-1),), Fraction(1))], 1))  # infeasible
@example(([((Fraction(1), Fraction(0)), Fraction(1)),
           ((Fraction(-1), Fraction(-1)), Fraction(1))], 2))  # feasible
def test_solve_inequalities_matches_the_two_pass_reference(system):
    constraints, nvars = system
    got = solve_inequalities(constraints, nvars)
    assert repr(got) == repr(_reference_solve_inequalities(constraints, nvars))
    if got is not None:
        assert all(dot(coeffs, got) >= b for coeffs, b in constraints)


# 7-12 vectors in Z^4..Z^6: Fourier-Motzkin without Chernikov's rule can take minutes
_cone_entries = st.integers(-36, 36).map(Fraction)
_cone_systems = st.integers(4, 6).flatmap(lambda n: st.tuples(
    st.tuples(*[_cone_entries] * n).filter(any),
    st.lists(st.tuples(*[_cone_entries] * n), min_size=6, max_size=11)))


@settings(max_examples=60, deadline=None)
@given(_cone_systems)
def test_pointed_cone_systems_get_a_strict_point(system):
    h, drawn = system
    vs = [h]  # each v turned into the open half-space h . v > 0
    for v in drawn:
        side = dot(h, v)
        vs.append(v if side > 0 else tuple(-x for x in v) if side < 0
                  else tuple(a + b for a, b in zip(v, h)))
    f = solve_inequalities([(v, Fraction(1)) for v in vs], len(h))
    assert f is not None and all(dot(v, f) >= 1 for v in vs)


@settings(max_examples=60, deadline=None)
@given(_cone_systems, st.integers(0, 10))
def test_cone_systems_holding_v_and_minus_v_are_infeasible(system, index):
    h, drawn = system
    vs = [h, *drawn]
    v = vs[index % len(vs)]
    vs.append(tuple(-x for x in v))
    assert solve_inequalities([(v, Fraction(1)) for v in vs], len(h)) is None


_cone_vectors = st.integers(1, 6).flatmap(lambda n: st.one_of(
    st.lists(st.tuples(*[_fm_entries] * n).filter(any), min_size=2, max_size=2),  # 1-vs-1
    st.lists(st.tuples(*[_fm_entries] * n).filter(any), min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(_cone_vectors)
@example([(Fraction(1, 2),), (Fraction(-1, 3),)])  # a first variable from integer rows
def test_integer_rows_give_the_rational_rows_point(vs):
    vs = [vector(v) for v in vs]
    rows = [_int_row(v) for v in vs]
    assert all(type(x) is int for row, lcm in rows for x in (*row, lcm))
    assert repr(solve_inequalities(rows, len(vs[0]))) == \
        repr(solve_inequalities([(v, Fraction(1)) for v in vs], len(vs[0])))


def _fraction_back_substitution(constraints, nvars):
    """solve_inequalities as it stood with back-substitution in Fraction: the
    elimination is the library's, each bound a Fraction, then max or min."""
    system = {1 << i: row for i, row in enumerate(constraints)}
    bounds = []
    for var in range(nvars - 1, -1, -1):
        lowers, uppers, rest = {}, {}, {}
        for support, (coeffs, b) in system.items():
            c = coeffs[var]
            (lowers if c > 0 else uppers if c < 0 else rest)[support] = (coeffs, b)
        for low, (lc, lb) in lowers.items():
            for up, (uc, ub) in uppers.items():
                if (support := low | up) in rest or support.bit_count() > nvars - var + 1:
                    continue
                scale_l, scale_u = -uc[var], lc[var]
                rest[support] = (tuple(scale_l * a + scale_u * b for a, b in zip(lc, uc)),
                                 scale_l * lb + scale_u * ub)
        system = rest
        bounds.append((lowers, uppers))
    if any(b > 0 for _, b in system.values()):
        return None
    values = []
    for var, (lowers, uppers) in enumerate(reversed(bounds)):
        found = [Fraction(b - sum(map(mul, coeffs, values)), coeffs[var])
                 for coeffs, b in (lowers or uppers).values()]
        values.append(max(found) if lowers else min(found) if uppers else Fraction(0))
    return tuple(values)


# integer rows as the cone callers pass them, or any right-hand sides; both feasible
# and infeasible systems are drawn, and a row and its negation make some infeasible
_int_systems = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * n), st.integers(-3, 3)),
             min_size=1, max_size=7),
    st.just(n), st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_int_systems)
@example(([((1, 2), 1), ((-3, 1), 1)], 2, False))  # bounds over a denominator of 3
@example(([((2, 0), 1)], 2, True))  # infeasible: 2 x >= 1 and -2 x >= 1
def test_integer_back_substitution_gives_the_fraction_point(system):
    rows, nvars, negate_first = system
    if negate_first:
        coeffs, b = rows[0]
        rows = rows + [(tuple(-x for x in coeffs), b)]
    got = solve_inequalities(rows, nvars)
    assert repr(got) == repr(_fraction_back_substitution(rows, nvars))
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        assert all(dot(coeffs, got) >= b for coeffs, b in rows)


def _pointed(m, n):
    """m distinct vectors in Z^n with first coordinate 1."""
    return [(1, *(((i >> j) & 1) * (j + 1) - i % 3 for j in range(n - 1))) for i in range(m)]


def test_cone_sets_with_too_many_subsets_are_refused():
    vs = _pointed(16, 8)
    with pytest.raises(InputError, match="more than 10000 subsets of size 2 to 9"):
        classify_cone(vs)
    with pytest.raises(InputError, match="16 vectors in dimension 8"):
        strict_separator(vs[:8], [tuple(-x for x in q) for q in vs[8:]])
    # 14 vectors in Z^6 have 9893 subsets of size 2 to 7: accepted
    assert sum(math.comb(14, s) for s in range(2, 8)) <= MAX_CONE_SUBSETS
    vs = _pointed(14, 6)
    f = strict_separator(vs[:7], [tuple(-x for x in q) for q in vs[7:]])
    assert Halfspace(f).strict_for([vector(v) for v in vs])


def test_solve_linear():
    assert solve_linear([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None


def _primitive_multiple(v):
    """Reference: search the smallest positive integer multiple, then divide by the gcd."""
    m = 1
    while any((x * m).denominator != 1 for x in v):
        m += 1
    ints = [int(x * m) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return tuple(x // g for x in ints) if g else tuple(ints)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(-6, 6, max_denominator=8), max_size=5))
def test_integer_multiples_of_rational_vectors(v):
    v = vector(v)
    cleared = _int_row(v)[0]
    assert all(type(x) is int for x in cleared)
    multiple = next((Fraction(c) / x for c, x in zip(cleared, v) if x), Fraction(1))
    assert multiple > 0 and all(multiple * x == c for x, c in zip(v, cleared))
    assert scale_to_integers(v) == _primitive_multiple(v)


def _leibniz_det(rows):
    """Reference: the signed sum over permutations, each sign by counting inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@st.composite
def square_integer_matrices(draw):
    """n <= 4, mostly small entries so that pivots vanish and rows swap; in about
    half, one row is an integer multiple of a row (a zero row for multiple 0)."""
    n = draw(st.integers(0, 4))
    entries = st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = [draw(st.integers(-3, 3)) * x for x in rows[k]]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_integer_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[2, 4], [1, 2]])
def test_int_det_matches_the_leibniz_formula(rows):
    det = int_det(rows)
    assert type(det) is int
    assert det == _leibniz_det(rows)
