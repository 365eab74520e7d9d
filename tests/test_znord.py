import hashlib
import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouporders import exactlin, znord
from grouporders.errors import DimensionMismatch, GroupOrderError, IsIdentity, NoCone
from grouporders.znord import (FlagOrdering, IntegerAutomorphism, _ball_vectors, act,
                               complete_flag, flag_sign, gl_witness, opposite,
                               positive_ratio, realize_flag)

I2 = FlagOrdering.identity(2)


def test_flag_sign_lex():
    assert flag_sign(FlagOrdering.identity(3), (0, 0, 3)) == 1
    assert flag_sign(I2, (-1, 7)) == -1
    assert flag_sign(I2, (0, 0)) == 0


def test_flag_sign_swapped_rows():
    f = FlagOrdering([[0, 1], [1, 0]])
    assert flag_sign(f, (5, -1)) == -1


def test_opposite_is_involution():
    f = FlagOrdering([[2, 1], [0, 3]])
    assert opposite(opposite(f)).rows == f.rows
    assert flag_sign(opposite(I2), (1, 0)) == -1


vectors = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: any(v))


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_opposite_flips_every_sign(v):
    f = FlagOrdering([[1, 2], [1, 1]])
    assert flag_sign(opposite(f), v) == -flag_sign(f, v)


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_flag_sign_antisymmetry_and_totality(v):
    f = FlagOrdering([[3, -1], [0, 2]])
    assert flag_sign(f, v) in (1, -1)
    assert flag_sign(f, tuple(-x for x in v)) == -flag_sign(f, v)


@settings(max_examples=80, deadline=None)
@given(vectors, vectors)
def test_flag_sign_semigroup(u, v):
    f = FlagOrdering([[1, 1], [1, 0]])
    total = (u[0] + v[0], u[1] + v[1])
    if flag_sign(f, u) == flag_sign(f, v) == 1 and any(total):
        assert flag_sign(f, total) == 1


def test_act_identity_fixes():
    a = IntegerAutomorphism(((1, 0), (0, 1)))
    assert act(a, I2).rows == I2.rows


def test_act_matches_evaluation():
    a = IntegerAutomorphism(((1, 1), (0, 1)))
    assert flag_sign(act(a, I2), (0, 1)) == flag_sign(I2, (1, 1)) == 1


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_act_composition_law(v):
    a = IntegerAutomorphism(((1, 1), (0, 1)))
    b = IntegerAutomorphism(((0, 1), (-1, 0)))
    ab = IntegerAutomorphism(tuple(
        tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(2)) for j in range(2))
        for i in range(2)))
    assert flag_sign(act(ab, I2), v) == flag_sign(act(b, act(a, I2)), v)


def test_semantic_equality():
    # positive row scaling and adding earlier rows to later ones keep every sign
    scaled = FlagOrdering([[2, 0], [3, 1]])
    swapped = FlagOrdering([[0, 1], [1, 0]])
    ball = list(_ball_vectors(2, 3))
    assert all(flag_sign(scaled, v) == flag_sign(I2, v) for v in ball)
    assert any(flag_sign(swapped, v) != flag_sign(I2, v) for v in ball)


def test_gl_witness_negative_identity():
    a = IntegerAutomorphism(((-1, 0), (0, -1)))
    flag, v = gl_witness(a)
    assert flag.rows == I2.rows
    assert flag_sign(flag, v) != flag_sign(flag, a.apply(v))


def test_gl_witness_transvection():
    a = IntegerAutomorphism(((1, 1), (0, 1)))
    flag, v = gl_witness(a)
    assert flag.rows == I2.rows
    assert v == (-1, 1)
    assert flag_sign(flag, v) == -1
    assert flag_sign(flag, a.apply(v)) == 1


def test_gl_witness_permutation():
    a = IntegerAutomorphism(((0, 1), (1, 0)))
    flag, v = gl_witness(a)
    assert flag_sign(flag, v) != flag_sign(flag, a.apply(v))


def test_gl_witness_rejects_identity():
    with pytest.raises(IsIdentity):
        gl_witness(IntegerAutomorphism(((1, 0), (0, 1))))


def test_gl_witness_lower_unipotent_needs_constructed_flag():
    # lower-triangular unipotent matrices preserve the lexicographic ordering,
    # so the witness flag cannot be the identity
    a = IntegerAutomorphism(((1, 0), (1, 1)))
    flag, v = gl_witness(a)
    assert flag_sign(flag, v) != flag_sign(flag, a.apply(v))


def _full_scan_gl_witness(a):
    """gl_witness scanning both loops in full: no lower unitriangular skip, no budget."""
    identity = FlagOrdering.identity(a.dimension)
    for v in _ball_vectors(a.dimension, 2):
        if flag_sign(identity, v) != flag_sign(identity, a.apply(v)):
            return identity, v
    for v in _ball_vectors(a.dimension, 2):
        image = a.apply(v)
        if positive_ratio(v, image) is None:
            return realize_flag([v, tuple(-x for x in image)]), v


@st.composite
def _triangular_matrices(draw):
    """Lower triangular with diagonal +-1 (unitriangular half the time), or its transpose."""
    n = draw(st.integers(2, 5))
    unit = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 if unit else draw(st.sampled_from((-1, 1)))
        for j in range(i):
            rows[i][j] = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return IntegerAutomorphism(rows)


@settings(max_examples=150, deadline=None)
@given(_triangular_matrices())
def test_gl_witness_matches_the_full_scan_on_triangular_matrices(a):
    # a lower unitriangular matrix skips the lexicographic scan, which cannot hit
    assume(not a.is_identity())
    flag, v = gl_witness(a)
    full_flag, full_v = _full_scan_gl_witness(a)
    assert (flag.rows, v) == (full_flag.rows, full_v)


def test_realize_flag_examples():
    flag = realize_flag([(1, 0), (-1, 1)])
    assert flag_sign(flag, (1, 0)) == 1
    assert flag_sign(flag, (-1, 1)) == 1
    flag = realize_flag([(2, 1)])
    assert flag_sign(flag, (2, 1)) == 1
    with pytest.raises(NoCone):
        realize_flag([(1, 0), (-1, 0)])


def test_flag_json_round_trip():
    f = FlagOrdering([["1/2", 1], [0, "-3"]])
    again = FlagOrdering.from_json(f.to_json())
    assert again.rows == f.rows


def _greedy_flag_rows(first_row):
    """Reference completion: append each standard basis row that raises the rank."""
    n = len(first_row)
    rows = [exactlin.vector(first_row)]
    for i in range(n):
        candidate = tuple(Fraction(1 if j == i else 0) for j in range(n))
        if exactlin.rank(rows + [candidate]) > exactlin.rank(rows):
            rows.append(candidate)
        if len(rows) == n:
            break
    return tuple(rows)


rational_entries = st.one_of(st.just(Fraction(0)),
                             st.fractions(-5, 5, max_denominator=7))
rational_rows = st.integers(1, 6).flatmap(
    lambda n: st.lists(rational_entries, min_size=n, max_size=n)).filter(any)


@settings(max_examples=200, deadline=None)
@given(rational_rows)
def test_complete_flag_matches_greedy_rank_scan(row):
    # complete_flag skips the rank check; the greedy rows go through it
    flag, checked = complete_flag(row), FlagOrdering(_greedy_flag_rows(row))
    assert flag.rows == checked.rows and flag._int_rows == checked._int_rows
    assert flag == checked and flag.to_json() == checked.to_json()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)).filter(any))
def test_complete_flag_of_an_int_row_is_that_of_its_fractions(row):
    # an int row builds its integer rows directly; Fractions go through _int_row
    flag, rational = complete_flag(tuple(row)), complete_flag([Fraction(x) for x in row])
    assert flag.rows == rational.rows and flag._int_rows == rational._int_rows
    assert flag._int_rows == FlagOrdering(flag.rows)._int_rows
    assert all(type(x) is Fraction for r in flag.rows for x in r)
    assert all(type(x) is int for r in flag._int_rows for x in r)
    assert flag == rational and flag.to_json() == rational.to_json()


def test_complete_flag_rejects_zero_row():
    for n in range(1, 7):
        with pytest.raises(DimensionMismatch):
            complete_flag((0,) * n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_positive_ratio_exactly_for_positive_multiples(data):
    n = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    u = data.draw(entries.filter(any))
    scale = data.draw(st.fractions(-3, 3, max_denominator=4))
    v = data.draw(st.one_of(st.just(tuple(scale * a for a in u)), entries))
    lead = next(i for i, a in enumerate(u) if a)
    candidate = Fraction(v[lead], u[lead])
    is_multiple = candidate > 0 and all(candidate * a == b for a, b in zip(u, v))
    ratio = positive_ratio(u, v)
    if ratio is None:
        assert not is_multiple
    else:
        assert ratio > 0
        assert all(ratio * a == b for a, b in zip(u, v))


def _first_nonzero_image_sign(rows, v):
    """Reference: sign of the first nonzero entry of the exact product rows . v."""
    for row in rows:
        value = sum((Fraction(a) * Fraction(b) for a, b in zip(row, v)), Fraction(0))
        if value != 0:
            return 1 if value > 0 else -1
    return 0


small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flag_sign_matches_exact_matrix_vector_product(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    assume(exactlin.rank(rows) == n)
    # a vector vanishing on the first k rows, so later rows decide its sign
    # (k = n gives the zero vector)
    k = data.draw(st.integers(0, n))
    basis = exactlin.kernel_basis(rows[:k]) if k else FlagOrdering.identity(n).rows
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                max_size=len(basis)))
    v = tuple(sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
              for i in range(n))
    form = data.draw(st.sampled_from(["int", "fraction", "string"]))
    if form == "int":
        v = exactlin.scale_to_integers(v)
    elif form == "string":
        v = tuple(str(x) for x in v)
    assert flag_sign(FlagOrdering(rows), v) == _first_nonzero_image_sign(rows, v)


@st.composite
def _unimodular_matrices(draw):
    """n <= 4: the identity under a few row additions, swaps and negations."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i != k and c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
        elif i != k:
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntegerAutomorphism(rows)


@settings(max_examples=150, deadline=None)
@given(_unimodular_matrices(), st.data())
def test_trusted_flags_match_the_checked_flags_of_their_rows(a, data):
    # identity, opposite, act and gl_witness build their flags without the check
    n = a.dimension
    rows = data.draw(st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    assume(exactlin.rank(rows) == n)
    f = FlagOrdering(rows)
    built, trusted = [], znord._trusted_flag

    def recording(rows, int_rows):
        built.append(trusted(rows, int_rows))
        return built[-1]

    with patch.object(znord, "_trusted_flag", recording):
        flags = [FlagOrdering.identity(n), opposite(f), act(a, f)]
        if not a.is_identity():
            gl_witness(a)
    assert built[:3] == flags
    for flag in built:
        checked = FlagOrdering(flag.rows)
        assert flag.rows == checked.rows and flag._int_rows == checked._int_rows
        assert flag == checked and flag.to_json() == checked.to_json()


def test_identity_flag_refuses_dimension_zero():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch, match="square and nonempty"):
            FlagOrdering.identity(n)


def test_flag_sign_dimension_mismatch():
    for v in ((1, 2, 3), (Fraction(1, 2),), ("1/2", "0", "1")):
        with pytest.raises(DimensionMismatch):
            flag_sign(I2, v)


# sha256 of the outcomes pinned below; a change to any is explained in CHANGES.md
AUTOMORPHISM_DIGEST = "d832d451e8badb1a4a7a707fbf8588361f065d32ad23bf52c6dd0846301de4fc"
GL_WITNESS_DIGEST = "ce2a698fdd7f2c6a1ca8fd7440633d06ada4ea47429dfa540a0c0cfe3c2dfd53"
FLAG_DIGEST = "81c050a482e23cc0625352573c4336ae5c8cda058f22747408053ed8ca5a21fb"
ROW_OPERATION_DIGEST = "11a0df04a8f45ea7c0653c0a71b37ea4cf8521f58206343a24ef9835a872773f"


def _pinned(f, *args) -> str:
    try:
        return repr(f(*args))
    except GroupOrderError as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _small_matrices():
    """All 625 2 x 2 matrices with entries -2..2, then all 19683 3 x 3 with entries -1..1."""
    for n, entries in ((2, range(-2, 3)), (3, range(-1, 2))):
        for flat in itertools.product(entries, repeat=n * n):
            yield tuple(flat[i:i + n] for i in range(0, n * n, n))


def test_automorphism_checks_on_small_matrices_are_pinned():
    lines = [f"{m} {_pinned(lambda: IntegerAutomorphism(m).dimension)}"
             for m in _small_matrices()]
    assert _digest(lines) == AUTOMORPHISM_DIGEST


def test_gl_witnesses_of_small_unimodular_matrices_are_pinned():
    lines = []
    for m in _small_matrices():
        try:
            a = IntegerAutomorphism(m)
        except DimensionMismatch:
            continue
        if not a.is_identity():
            lines.append(f"{m} {_pinned(gl_witness, a)}")
    assert len(lines) == 7062
    assert _digest(lines) == GL_WITNESS_DIGEST


def _seeded_flag_rows(rng: random.Random) -> list:
    """A rational matrix with n <= 6 rows: square and about half of them singular
    (a zero row, or a row combining others), or ragged, or one column too wide."""
    n = rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]
    kind = rng.choice(("full", "full", "zero row", "combination", "combination", "shape"))
    i = rng.randrange(n)
    if kind == "zero row":
        rows[i] = [Fraction(0)] * n
    elif kind == "combination":
        others = rng.sample([r for k, r in enumerate(rows) if k != i], min(n - 1, 2))
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in others]
        rows[i] = [sum((c * r[k] for c, r in zip(weights, others)), Fraction(0))
                   for k in range(n)]
    elif kind == "shape":
        for r in rows if rng.random() < 0.5 else rows[i:i + 1]:
            r.append(Fraction(1))
    return rows


def test_flag_checks_on_seeded_rational_matrices_are_pinned():
    rng = random.Random(25)
    lines = []
    for _ in range(600):
        rows = _seeded_flag_rows(rng)
        lines.append(f"{rows} {_pinned(lambda: (f := FlagOrdering(rows)).rows + f._int_rows)}")
    assert _digest(lines) == FLAG_DIGEST


def _row_operation_matrix(rng: random.Random) -> tuple:
    """A product of up to 6 row operations on the identity of dimension 4 or 5: half
    the time only adding a multiple of a row to a later one, a lower unitriangular
    matrix, whose witness comes from the constructed flag's scan."""
    n = rng.choice((4, 5))
    lower = rng.random() < 0.5
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 6)):
        k, i = sorted(rng.sample(range(n), 2))
        if not lower and rng.random() < 0.5:
            i, k = k, i
        kind = "add" if lower else rng.choice(("add", "add", "swap", "negate"))
        if kind == "add":
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
        elif kind == "swap":
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return tuple(map(tuple, rows))


def test_gl_witnesses_of_row_operation_matrices_are_pinned():
    # gl_witness calls positive_ratio on every vector its constructed-flag scan visits
    rng = random.Random(29)
    lines = []
    for _ in range(600):
        m = _row_operation_matrix(rng)
        lines.append(f"{m} {_pinned(lambda: gl_witness(IntegerAutomorphism(m)))}")
    assert _digest(lines) == ROW_OPERATION_DIGEST


def _fraction_positive_ratio(u, v):
    """positive_ratio as a loop over Fraction ratios: the reference for its
    cross-multiplied form."""
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


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_positive_ratio_matches_the_fraction_loop(data):
    n = data.draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
    entries = st.lists(entry, min_size=n, max_size=n)
    u = data.draw(entries)
    scale = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)))
    multiple = [scale * a for a in u]
    changed = data.draw(st.integers(0, n - 1))
    nearly = multiple[:changed] + [data.draw(entry)] + multiple[changed + 1:]
    v = data.draw(st.sampled_from((multiple, nearly, data.draw(entries))))
    ratio = positive_ratio(u, v)
    assert ratio == _fraction_positive_ratio(u, v)
    assert ratio is None or type(ratio) is Fraction
