"""Independent arithmetic used to check the library's answers.

Nothing here imports ``grouporders``: vectors are integer tuples, words are
tuples of nonzero integers (``+i`` the i-th generator, ``-i`` its inverse),
and the Magnus expansion, Lyndon basis and Klein bottle product are written
out again from their definitions.  Rational inputs (``Fraction``) are only
read through ``numerator`` and ``denominator``.
"""

from __future__ import annotations

from itertools import product
from math import gcd


# --------------------------------------------------------------------------
# integer vectors and flags


def integer_row(row) -> tuple[int, ...]:
    """Positive integer multiple of a rational row; signs are unchanged."""
    lcm = 1
    for x in row:
        d = x.denominator
        lcm = lcm * d // gcd(lcm, d)
    return tuple(x.numerator * (lcm // x.denominator) for x in row)


def idot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def full_rank(rows) -> bool:
    """Fraction-free (Bareiss) elimination on a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        return False
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return False
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return True


def flag_sign(int_rows, v) -> int:
    for row in int_rows:
        value = idot(row, v)
        if value:
            return 1 if value > 0 else -1
    return 0


def check_halfspace(functional, vectors) -> str | None:
    f = integer_row(functional)
    for v in vectors:
        if idot(f, v) <= 0:
            return f"functional {f} not positive on {v}"
    return None


def check_zero_combo(coefficients, vectors) -> str | None:
    coefficients = tuple(coefficients)
    if len(coefficients) != len(vectors):
        return "zero combination has the wrong length"
    if any(c < 0 for c in coefficients) or not any(coefficients):
        return f"coefficients {coefficients} not nonnegative and nonzero"
    total = [sum(c * v[i] for c, v in zip(coefficients, vectors))
             for i in range(len(vectors[0]))]
    if any(total):
        return f"combination sums to {total}, not zero"
    return None


def check_flag_positive(rows, vectors) -> str | None:
    int_rows = [integer_row(r) for r in rows]
    if not full_rank(int_rows):
        return "flag matrix is not of full rank"
    for v in vectors:
        if flag_sign(int_rows, v) != 1:
            return f"flag does not make {v} positive"
    return None


def mat_apply(a, v) -> tuple[int, ...]:
    return tuple(idot(row, v) for row in a)


# --------------------------------------------------------------------------
# free groups


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def power(letters, n: int) -> tuple[int, ...]:
    return reduce_letters(tuple(letters) * n)


def commutator(u, v) -> tuple[int, ...]:
    return reduce_letters(u + v + inverse(u) + inverse(v))


def ball(rank: int, radius: int) -> list[tuple[int, ...]]:
    """Nonempty reduced words of length <= radius, shortest first."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    words, frontier = [], [()]
    for _ in range(radius):
        frontier = [w + (x,) for w in frontier for x in alphabet
                    if not w or w[-1] != -x]
        words.extend(frontier)
    return words


def primitive_root(letters) -> tuple[int, ...]:
    """The reduced word r with letters == r^m for the largest m >= 1."""
    core = list(letters)
    prefix: list[int] = []
    while len(core) >= 2 and core[0] == -core[-1]:
        prefix.append(core[0])
        core = core[1:-1]
    n = len(core)
    period = next(p for p in range(1, n + 1)
                  if n % p == 0 and core == core[:p] * (n // p))
    return reduce_letters(tuple(prefix) + tuple(core[:period]) + inverse(prefix))


def substitute(images, letters) -> tuple[int, ...]:
    """Image of a word under the map sending generator i to images[i - 1]."""
    out: list[int] = []
    for x in letters:
        image = images[abs(x) - 1]
        out.extend(image if x > 0 else inverse(image))
    return reduce_letters(out)


def exponent_sums(rank: int, letters) -> tuple[int, ...]:
    sums = [0] * rank
    for x in letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(sums)


def magnus(letters, cap: int) -> dict[tuple[int, ...], int]:
    """Image of a word under x_i -> 1 + X_i, truncated above degree cap."""
    series = {(): 1}
    for x in letters:
        i = abs(x)
        out: dict[tuple[int, ...], int] = {}
        for mono, c in series.items():
            out[mono] = out.get(mono, 0) + c
            if x > 0:
                if len(mono) < cap:
                    out[mono + (i,)] = out.get(mono + (i,), 0) + c
                continue
            # (1 + X)^-1 = 1 - X + X^2 - ...
            coeff, tail = c, mono
            for _ in range(cap - len(mono)):
                tail, coeff = tail + (i,), -coeff
                out[tail] = out.get(tail, 0) + coeff
        series = {m: c for m, c in out.items() if c}
    return series


def lyndon_words(rank: int, weight: int) -> list[tuple[int, ...]]:
    """Words strictly smaller than each of their proper rotations."""
    return sorted(w for w in product(range(1, rank + 1), repeat=weight) if _is_lyndon(w))


def _is_lyndon(w) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def bracket_expansion(w: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Associative expansion of the standard bracketing of a Lyndon word.

    The split is before the longest proper suffix that is itself Lyndon.
    """
    if len(w) == 1:
        return {w: 1}
    split = next(i for i in range(1, len(w)) if _is_lyndon(w[i:]))
    left, right = bracket_expansion(w[:split]), bracket_expansion(w[split:])
    out: dict[tuple[int, ...], int] = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
            out[m2 + m1] = out.get(m2 + m1, 0) - c1 * c2
    return {m: c for m, c in out.items() if c}


def check_leading_coords(rank: int, letters, depth: int, coords) -> str | None:
    """Depth and Lyndon-basis coordinates of a word, recomputed independently."""
    sums = exponent_sums(rank, letters)
    if depth == 1:
        return None if any(sums) and tuple(coords) == sums else \
            f"level-1 coordinates {tuple(coords)} != exponent sums {sums}"
    if any(sums):
        return f"depth {depth} reported for a word with exponent sums {sums}"
    series = magnus(letters, depth)
    if any(m and len(m) < depth for m in series):
        return f"word has a nonzero term below degree {depth}"
    basis = lyndon_words(rank, depth)
    if len(coords) != len(basis) or not any(coords):
        return f"{len(coords)} coordinates for a layer of rank {len(basis)}"
    recon: dict[tuple[int, ...], int] = {}
    for c, w in zip(coords, basis):
        for m, x in bracket_expansion(w).items():
            recon[m] = recon.get(m, 0) + c * x
    top = {m: c for m, c in series.items() if len(m) == depth}
    if {m: c for m, c in recon.items() if c} != top:
        return "coordinates do not reconstruct the leading Magnus term"
    return None


# --------------------------------------------------------------------------
# the Klein bottle group, normal forms x^a y^b with x^-1 y x = y^-1


def k_mul(p, q):
    return (p[0] + q[0], (-1 if q[0] % 2 else 1) * p[1] + q[1])


def k_pow(p, n: int):
    result = (0, 0)
    base = p if n >= 0 else (-p[0], -(-1 if p[0] % 2 else 1) * p[1])
    for _ in range(abs(n)):
        result = k_mul(result, base)
    return result


def k_apply(image_x, image_y, p):
    return k_mul(k_pow(image_x, p[0]), k_pow(image_y, p[1]))


def k_sign(eps: int, delta: int, p) -> int:
    if p[0]:
        return 1 if eps * p[0] > 0 else -1
    return 1 if delta * p[1] > 0 else -1


def k_ball(radius: int):
    return [(a, b) for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1) if (a, b) != (0, 0)]


def check_klein_four(names, table) -> str | None:
    """The multiplication table is that of Z/2 x Z/2."""
    names = tuple(names)
    if len(names) != 4:
        return f"{len(names)} outer classes"
    units = [e for e in names if all(table[(e, n)] == n == table[(n, e)] for n in names)]
    if len(units) != 1:
        return "no unique identity class"
    e = units[0]
    for a in names:
        if table[(a, a)] != e:
            return f"class {a} does not square to the identity"
        if sorted(table[(a, b)] for b in names) != sorted(names):
            return f"row {a} is not a permutation"
        if any(table[(a, b)] != table[(b, a)] for b in names):
            return f"class {a} does not commute"
    return None
