"""The three workloads: seeded query lists, the calls into the library, and
the independent check of every answer.

Each workload turns a seed into a *round*: a fixed list of query specs made
of plain integers and tuples, generated before the library is imported.
``build`` turns the specs into :class:`Query` objects that call the public
API of ``grouporders`` (passed in as ``go``).  The runner repeats the
round several times and keeps the median of each query's repetitions.

``warmup`` specs are fixed (seed-independent) and hold one query of each
distinct shape; running them fills the library's lazy caches, and their
cost is the workload's set-up time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re

import oracle

BUDGET_S = 30      # per-query budget; no query of the main tiers comes near it
STRETCH_BUDGET_S = 1
WARMUP_SEED = 0
STRETCH_SEED = 6


class Query:
    """One call into the library plus the independent check of its answer.

    ``call()`` returns the answer; an exception listed in ``declared`` is a
    certified answer too and is passed to ``check`` as ``exc``.  ``check``
    returns None or a description of what is wrong.  Queries with the same
    ``shape`` (the same operation on inputs of the same size) share one
    median latency; ``None`` makes the query its own shape.  A query marked
    ``once`` runs in the first round only; one with ``timed`` false is
    checked but left out of the latency figures.  On a query with
    ``timeout_expected`` running past the budget is the recorded outcome,
    not a failure.
    """

    __slots__ = ("kind", "shape", "budget", "once", "timed", "timeout_expected", "call",
                 "check", "declared")

    def __init__(self, kind, call, check, declared=(), budget=BUDGET_S, shape=None,
                 once=False, timed=True, timeout_expected=False):
        self.kind = kind
        self.shape = shape
        self.once = once
        self.timed = timed
        self.timeout_expected = timeout_expected
        self.call = call
        self.check = check
        self.declared = declared
        self.budget = budget


# --------------------------------------------------------------------------
# cones: exactlin and znord only


def _nonzero_vector(rng, n, bound=3):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v):
            return v


def _vector_set(rng, n, m, pointed):
    """m nonzero vectors in Z^n; pointed sets lie in an open half-space."""
    h = _nonzero_vector(rng, n)
    vs = []
    while len(vs) < m:
        v = _nonzero_vector(rng, n)
        if not pointed or oracle.idot(h, v) > 0:
            vs.append(v)
    return tuple(vs)


def _gl_matrix(rng, n):
    """A non-identity integer matrix of determinant +-1, from row operations."""
    while True:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n + 3):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.5:
            k = rng.randrange(n)
            rows[k] = [-a for a in rows[k]]
        if any(rows[i][j] != int(i == j) for i in range(n) for j in range(n)):
            return tuple(tuple(r) for r in rows)


class Cones:
    """Seeded vector sets in dimensions 2-5 with 3-10 vectors, half pointed.

    Every set is classified and realized; pointed sets are also split into
    a pos/neg pair for ``strict_separator``.  A fixed stretch tier (two sets
    of 12 vectors in dimension 6) runs once with a short budget; it times
    out until classify_cone stops using Fourier-Motzkin, and its timeouts
    are reported on their own rather than as failed queries.
    """

    name = "cones"
    # Dimension 5 stops at 6 vectors and dimension 4 at 8: beyond, a few
    # percent of random sets send Fourier-Motzkin past 1 s and 10 MB (at 9-10 vectors
    # 5-10% do, some past the 30 s budget), so the seed would decide the
    # run's time, memory and timeouts.  The fixed stretch tier records that
    # blow-up on every seed instead.  Few sizes with many sets each keep a
    # shape's median steady where single random sets differ in cost by 2-5x.
    SIZES = {2: (3, 5, 10), 3: (3, 5, 10), 4: (3, 5, 8), 5: (3, 4, 6)}
    SETS_PER_SHAPE = 6
    # Sets of at most five vectors cost 1-3 ms and hold the median query;
    # twice as many of them keep query_p50_ms from following the seed.
    SMALL_SIZE, SMALL_SETS_PER_SHAPE = 5, 12
    GL_DIMS = (2, 2, 3, 3, 4, 4)

    def generate(self, seed):
        rng = random.Random(seed)
        specs = []
        for n, sizes in self.SIZES.items():
            for m in sizes:
                sets = self.SMALL_SETS_PER_SHAPE if m <= self.SMALL_SIZE else self.SETS_PER_SHAPE
                for pointed in (True, False) * sets:
                    vs = _vector_set(rng, n, m, pointed)
                    specs.append(("classify", vs, pointed))
                    specs.append(("realize", vs, pointed))
                    if pointed:
                        half = (m + 1) // 2
                        neg = tuple(tuple(-x for x in v) for v in vs[half:])
                        specs.append(("strict", vs[:half], neg))
        specs += [("gl", _gl_matrix(rng, n)) for n in self.GL_DIMS]
        stretch = random.Random(STRETCH_SEED)
        specs += [("stretch", _vector_set(stretch, 6, 12, pointed), pointed)
                  for pointed in (True, False)]
        rng.shuffle(specs)
        return specs

    def warmup(self):
        rng = random.Random(WARMUP_SEED)
        specs = []
        for n in self.SIZES:
            vs = _vector_set(rng, n, 3, True)
            specs += [("classify", vs, True), ("realize", vs, True),
                      ("strict", vs[:2], (tuple(-x for x in vs[2]),))]
        specs += [("gl", _gl_matrix(rng, n)) for n in sorted(set(self.GL_DIMS))]
        return specs

    def build(self, go, specs):
        answers = {}  # vector set -> "halfspace" / "zero", shared by classify and realize

        def agree(vs, answer):
            seen = answers.setdefault(vs, answer)
            return None if seen == answer else \
                f"classify_cone and realize_flag disagree on {vs}"

        def classify_check(vs, pointed):
            def check(cert, exc):
                if isinstance(cert, go.Halfspace):
                    return oracle.check_halfspace(cert.functional, vs) or agree(vs, "halfspace")
                if pointed:
                    return f"zero combination reported for the pointed set {vs}"
                return oracle.check_zero_combo(cert.coefficients, vs) or agree(vs, "zero")
            return check

        def realize_check(vs):
            def check(flag, exc):
                if exc is not None:
                    if exc.certificate is None:
                        return "NoCone without a certificate"
                    return (oracle.check_zero_combo(exc.certificate.coefficients, vs)
                            or agree(vs, "zero"))
                return oracle.check_flag_positive(flag.rows, vs) or agree(vs, "halfspace")
            return check

        def strict_check(pos, neg):
            def check(f, exc):
                g = oracle.integer_row(f)
                if all(oracle.idot(g, p) > 0 for p in pos) and \
                        all(oracle.idot(g, q) < 0 for q in neg):
                    return None
                return f"functional {g} does not separate {pos} from {neg}"
            return check

        def gl_check(a):
            def check(answer, exc):
                flag, v = answer
                rows = [oracle.integer_row(r) for r in flag.rows]
                if not any(v) or not oracle.full_rank(rows):
                    return "witness flag is degenerate"
                before = oracle.flag_sign(rows, v)
                after = oracle.flag_sign(rows, oracle.mat_apply(a, v))
                return None if before != after else f"{a} does not move the sign of {v}"
            return check

        queries = []
        for spec in specs:
            kind = spec[0]
            if kind in ("classify", "stretch"):
                _, vs, pointed = spec
                queries.append(Query(
                    kind, lambda vs=vs: go.classify_cone(vs), classify_check(vs, pointed),
                    budget=STRETCH_BUDGET_S if kind == "stretch" else BUDGET_S,
                    shape=(kind, len(vs[0]), len(vs), pointed), once=kind == "stretch",
                    timeout_expected=kind == "stretch"))
            elif kind == "realize":
                _, vs, pointed = spec
                queries.append(Query(kind, lambda vs=vs: go.realize_flag(vs),
                                     realize_check(vs), declared=(go.NoCone,),
                                     shape=(kind, len(vs[0]), len(vs), pointed)))
            elif kind == "strict":
                _, pos, neg = spec
                queries.append(Query(kind, lambda p=pos, n=neg: go.strict_separator(p, n),
                                     strict_check(pos, neg),
                                     shape=(kind, len(pos[0]), len(pos) + len(neg))))
            else:
                a = spec[1]
                matrix = go.IntegerAutomorphism(a)
                queries.append(Query(kind, lambda m=matrix: go.gl_witness(m), gl_check(a),
                                     shape=(kind, len(a))))
        return queries


# --------------------------------------------------------------------------
# separate: a fresh ordering per query


def word_text(letters) -> str:
    if not letters:
        return "1"
    return " ".join(f"x{abs(x)}" + ("" if x > 0 else "^-1") for x in letters)


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_text(text: str) -> tuple[int, ...]:
    """Letters of a word printed as ``x1 x2^-1 x1^3``."""
    letters = []
    for token in text.split():
        if token == "1":
            continue
        index, exp = _TOKEN.match(token).groups()
        exp = int(exp) if exp is not None else 1
        letters += [int(index) * (1 if exp > 0 else -1)] * abs(exp)
    return oracle.reduce_letters(letters)


def _same_direction(g, k) -> bool:
    """Exponent-sum vectors of two F_3 words are positive multiples."""
    u, v = oracle.exponent_sums(3, g), oracle.exponent_sums(3, k)
    return oracle.idot(u, v) > 0 and all(
        u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(3))


def _klein_map(rng):
    """Images (x, y) of a Klein bottle automorphism: x -> x^e y^m, y -> y^d."""
    return ((rng.choice((1, -1)), rng.randint(-3, 3)), (0, rng.choice((1, -1))))


class Separate:
    """Every ordered pair of distinct words in the F_2 radius-3 ball, plus a
    seeded sample of F_3 radius-2 pairs, ordering witnesses and boundary
    certificates over the 24-entry catalog, the Klein suite, and a slice of
    the same questions sent through the CLI with ``--json``."""

    name = "separate"
    # Every F_2 pair runs and is checked in the first round; a seeded sample
    # of this share of each (|g|, |k|) group is also timed and repeats, so
    # that a round is short enough for every timed query to be measured
    # many times over a run.
    F2_TIMED_SHARE = 0.15
    F3_OTHER_PAIRS = 24
    CLI_PAIRS = 16
    CLI_WITNESSES = 4
    KLEIN_MAPS = 2
    CATALOG_SIZE = 24
    # The CLI parses a map as a bare endomorphism and looks for an inverse
    # with images of length <= 8; entry 23 (inner_x1_after_ia(F3)) needs
    # longer ones and exits with NonAutomorphism, as the README documents.
    CLI_CATALOG = (range(12), range(12, 23))  # F_2 entries, F_3 entries

    def generate(self, seed):
        rng = random.Random(seed)
        f2 = oracle.ball(2, 3)
        pairs = [(g, k) for g in f2 for k in f2 if g != k]
        groups: dict[tuple[int, int], list] = {}
        for g, k in pairs:
            groups.setdefault((len(g), len(k)), []).append((g, k))
        timed = set()
        for group in groups.values():
            timed.update(rng.sample(group, max(1, round(self.F2_TIMED_SHARE * len(group)))))
        f3 = oracle.ball(3, 2)
        f3_pairs = [(g, k) for g in f3 for k in f3 if g != k]
        # Pairs whose exponent sums are positive multiples of each other need
        # a twist or share a root; all 36 of them run, so the seed does not
        # decide how many slow twisted pairs a round holds.
        matched = [p for p in f3_pairs if _same_direction(*p)]
        others = [p for p in f3_pairs if not _same_direction(*p)]
        specs = [("sep", 2, g, k, (g, k) in timed) for g, k in pairs]
        specs += [("sep", 3, g, k, True)
                  for g, k in matched + rng.sample(others, self.F3_OTHER_PAIRS)]
        specs += [(kind, i) for i in range(self.CATALOG_SIZE)
                  for kind in ("witness", "boundary")]
        specs += [("klein_orderings",), ("klein_table",)]
        specs += [("klein_pull", _klein_map(rng), (eps, delta))
                  for _ in range(self.KLEIN_MAPS) for eps in (1, -1) for delta in (1, -1)]
        specs += [("cli_sep", g, k) for g, k in rng.sample(pairs, self.CLI_PAIRS)]
        specs += [("cli_witness", i) for entries in self.CLI_CATALOG
                  for i in rng.sample(entries, self.CLI_WITNESSES // 2)]
        rng.shuffle(specs)
        return specs

    def warmup(self):
        x1, x2 = (1,), (2,)
        return [("sep", 2, x1, x2, True), ("sep", 2, (1, 2), (2, 1), True),
                ("sep", 2, x1, (1, 1), True), ("sep", 3, (1, 3), (3, 1), True), ("witness", 0), ("witness", 8),
                ("witness", 12), ("witness", 21), ("boundary", 0),
                ("klein_orderings",), ("klein_table",),
                ("klein_pull", ((1, 1), (0, 1)), (1, 1)),
                ("cli_sep", (1, 2), (2, 1)), ("cli_witness", 3)]

    def build(self, go, specs):
        importlib.import_module("grouporders.cli")  # binds go.cli
        catalog = go.automorphism_catalog()
        if len(catalog) != self.CATALOG_SIZE:
            raise RuntimeError(f"catalog has {len(catalog)} entries, "
                               f"expected {self.CATALOG_SIZE}")
        images = [tuple(w.letters for w in phi.forward.images) for _, phi in catalog]

        def separate_check(rank, g, k):
            wg, wk = go.Word(rank, g), go.Word(rank, k)
            sums_g, sums_k = oracle.exponent_sums(rank, g), oracle.exponent_sums(rank, k)

            def check(ordering, exc):
                if exc is not None:
                    a, b = exc.powers
                    if a >= 1 and b >= 1 and oracle.power(g, a) == oracle.power(k, b):
                        return None
                    return f"CommonRoot{exc.powers} for {g}, {k} is not a common power"
                if isinstance(ordering, go.StandardOrdering) and any(sums_g) and any(sums_k):
                    # both words have depth 1: their sign is the level-1 flag's
                    # sign of the exponent sums
                    rows = [oracle.integer_row(r) for r in ordering.levels[0].rows]
                    signs = (oracle.flag_sign(rows, sums_g), oracle.flag_sign(rows, sums_k))
                    ok = oracle.full_rank(rows) and signs == (1, -1)
                else:
                    ok = ordering.sign(wg) == 1 and ordering.sign(wk) == -1
                return None if ok else f"ordering does not separate {g} from {k}"
            return check

        def witness_check(index, ordering, letters, before, after):
            rank = catalog[index][1].rank
            image = oracle.substitute(images[index], letters)
            if before == after or ordering.sign(go.Word(rank, letters)) != before or \
                    ordering.sign(go.Word(rank, image)) != after:
                return f"witness for catalog entry {index} does not verify"
            return None

        def boundary_check(index):
            def check(g, exc):
                image = oracle.substitute(images[index], g.letters)
                if not g.letters or not image:
                    return "boundary certificate is the identity or maps to it"
                if oracle.primitive_root(g.letters) == oracle.primitive_root(image):
                    return f"{g.letters} shares a power with its image"
                return None
            return check

        def cli(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = go.cli.main(argv)
            return code, out.getvalue()

        def cli_separate(g, k):
            code, out = cli(["free", "separate", word_text(g), word_text(k),
                             "--rank", "2", "--cap", "5", "--json"])
            return code, go.ordering_from_json(out) if code == 0 else None

        def cli_separate_check(g, k):
            wg, wk = go.Word(2, g), go.Word(2, k)

            def check(answer, exc):
                code, ordering = answer
                if code == 2:
                    return None if oracle.primitive_root(g) == oracle.primitive_root(k) \
                        else f"CLI reported a common root for {g}, {k}"
                if code != 0 or ordering.sign(wg) != 1 or ordering.sign(wk) != -1:
                    return f"CLI separation of {g}, {k} failed with exit code {code}"
                return None
            return check

        def cli_witness(index):
            phi = catalog[index][1]
            code, out = cli(["aut", "witness", str(phi.forward), "--rank", str(phi.rank),
                             "--cap", "5", "--json"])
            payload = json.loads(out) if code == 0 else None
            ordering = go.ordering_from_json(payload["ordering"]) if payload else None
            return code, payload, ordering

        def cli_witness_check(index):
            def check(answer, exc):
                code, payload, ordering = answer
                if code != 0:
                    return f"CLI witness for catalog entry {index} exited {code}"
                signs = {"+": 1, "-": -1}
                return witness_check(index, ordering, parse_text(payload["word"]),
                                     signs[payload["sign_before"]],
                                     signs[payload["sign_after"]])
            return check

        def klein_pull(image_x, image_y, eps, delta):
            phi = go.KleinAut(go.KleinElement(*image_x), go.KleinElement(*image_y))
            ordering = go.KleinOrdering(eps, delta)
            return (lambda: go.k_pull(phi, ordering)), _pull_check(image_x, image_y, eps, delta)

        queries = []
        for spec in specs:
            kind = spec[0]
            if kind == "sep":
                _, rank, g, k, timed = spec
                wg, wk = go.Word(rank, g), go.Word(rank, k)
                queries.append(Query(f"sep_f{rank}",
                                     lambda a=wg, b=wk: go.separate(a, b, 5),
                                     separate_check(rank, g, k), declared=(go.CommonRoot,),
                                     once=not timed, timed=timed))
            elif kind == "witness":
                index = spec[1]
                phi = catalog[index][1]
                queries.append(Query(
                    kind, lambda p=phi: go.ordering_witness(p, 5),
                    lambda w, exc, i=index: witness_check(
                        i, w.ordering, w.word.letters, w.sign_before, w.sign_after)))
            elif kind == "boundary":
                index = spec[1]
                phi = catalog[index][1]
                queries.append(Query(kind, lambda p=phi: go.boundary_separation(p),
                                     boundary_check(index)))
            elif kind == "klein_orderings":
                queries.append(Query(kind, lambda: go.k_enumerate_orderings(),
                                     _check_klein_orderings))
            elif kind == "klein_table":
                queries.append(Query(kind, lambda: go.k_out_table(), _check_klein_table))
            elif kind == "klein_pull":
                _, (image_x, image_y), (eps, delta) = spec
                call, check = klein_pull(image_x, image_y, eps, delta)
                queries.append(Query(kind, call, check))
            elif kind == "cli_sep":
                _, g, k = spec
                queries.append(Query(kind, lambda a=g, b=k: cli_separate(a, b),
                                     cli_separate_check(g, k)))
            else:
                index = spec[1]
                queries.append(Query(kind, lambda i=index: cli_witness(i),
                                     cli_witness_check(index)))
        return queries


def _check_klein_orderings(orderings, exc):
    signs = sorted((o.eps, o.delta) for o in orderings)
    if len(orderings) != 4 or signs != [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
        return f"expected the four orderings, got {signs}"
    return None


def _check_klein_table(table, exc):
    problem = oracle.check_klein_four(table.class_names, table.multiplication)
    if problem:
        return problem
    if any(sorted(perm) != [0, 1, 2, 3] for perm in table.actions.values()):
        return "an outer class does not permute the four orderings"
    return None


def _pull_check(image_x, image_y, eps, delta):
    def check(pulled, exc):
        for p in oracle.k_ball(3):
            expected = oracle.k_sign(eps, delta, oracle.k_apply(image_x, image_y, p))
            if oracle.k_sign(pulled.eps, pulled.delta, p) != expected:
                return f"pulled ordering disagrees at {p}"
        return None
    return check


# --------------------------------------------------------------------------
# quotients: series, hall and stdord on fixed orderings


def _reduced_word(rng, rank, length):
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    letters = [rng.choice(alphabet)]
    while len(letters) < length:
        x = rng.choice(alphabet)
        if x != -letters[-1]:
            letters.append(x)
    return tuple(letters)


def _left_normed_commutator(rng, rank, weight):
    """[..[[a, b], c], ..] of signed generators with a != b, of the given weight."""
    a, b = rng.sample(range(1, rank + 1), 2)
    w = oracle.commutator((a * rng.choice((1, -1)),), (b * rng.choice((1, -1)),))
    for _ in range(weight - 2):
        w = oracle.commutator(w, (rng.randint(1, rank) * rng.choice((1, -1)),))
    return w


def _random_flag(rng, dim):
    while True:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim))
        if oracle.full_rank(rows):
            return rows


class Quotients:
    """Induced matrices of IA products, leading coordinates of long words and
    deep commutators, and cone-axiom checks of fixed standard orderings."""

    name = "quotients"
    INDUCED = ((2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4), (2, 5, 4),
               (3, 1, 4), (3, 2, 4), (3, 3, 4), (3, 4, 2))  # (rank, level, count)
    # Long words come in fixed lengths so that a shape (rank, cap, length)
    # has one cost; only the letters are random.  Rank 3 stops at cap 6:
    # cap-7 words there cost 0.1-0.5 s each and would take a quarter of a
    # round, leaving every query fewer repetitions in a run.
    LONG_WORDS = tuple((rank, cap, length, 3) for rank, caps in ((2, (5, 6, 7)), (3, (5, 6)))
                       for cap in caps for length in (50, 100, 200))  # (rank, cap, length, count)
    # Eight weight-5 commutators rank 7th to 14th by cost, around the
    # eleventh-slowest slot that query_tail_ms reads, so the tail does not
    # jump between neighbouring shapes of different cost.
    COMMUTATORS = ((3, 4, 9), (3, 5, 8))  # (rank, weight, count)
    AXIOM_RADIUS = 4
    # Orderings differ in checking cost by up to 1.3x, and this check is a
    # third of a round; two of them, as one shape, halve the seed's say.
    AXIOM_ORDERINGS = 2
    LEVEL_DIMS = (2, 1, 2, 3, 6)  # Lyndon layer ranks of F_2 up to class 5

    @staticmethod
    def _ia_draws(rng):
        """One to three uniform draws, each picking an IA generator."""
        return tuple(rng.random() for _ in range(rng.randint(1, 3)))

    def generate(self, seed):
        rng = random.Random(seed)
        specs = []
        for rank, level, count in self.INDUCED:
            specs += [("induced", rank, level, self._ia_draws(rng)) for _ in range(count)]
        for rank, cap, length, count in self.LONG_WORDS:
            specs += [("coords", rank, cap, _reduced_word(rng, rank, length), 1)
                      for _ in range(count)]
        for rank, weight, count in self.COMMUTATORS:
            specs += [("coords", rank, 5, _left_normed_commutator(rng, rank, weight), weight)
                      for _ in range(count)]
        specs += [("axioms", tuple(_random_flag(rng, d) for d in self.LEVEL_DIMS))
                  for _ in range(self.AXIOM_ORDERINGS)]
        rng.shuffle(specs)
        return specs

    def warmup(self):
        rng = random.Random(WARMUP_SEED)
        specs = [("induced", rank, level, self._ia_draws(rng))
                 for rank, level, _ in self.INDUCED]
        specs += [("coords", rank, cap, _reduced_word(rng, rank, length), 1)
                  for rank, cap, length, _ in self.LONG_WORDS]
        specs += [("coords", rank, 5, _left_normed_commutator(rng, rank, weight), weight)
                  for rank, weight, _ in self.COMMUTATORS]
        specs.append(("axioms", tuple(_random_flag(rng, d) for d in self.LEVEL_DIMS)))
        return specs

    def build(self, go, specs):
        pools = {rank: go.ia_generators(rank) for rank in (2, 3)}

        def ia_product(rank, draws):
            pool = pools[rank]
            phi = pool[int(draws[0] * len(pool))]
            for u in draws[1:]:
                phi = phi.compose(pool[int(u * len(pool))])
            return phi.forward

        def induced_check(rank, level):
            n = len(oracle.lyndon_words(rank, level))
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            return lambda m, exc: None if m == identity else \
                f"IA product acts nontrivially at level {level}"

        def coords_check(rank, letters, weight):
            def check(answer, exc):
                depth, coords = answer
                if depth < weight:
                    return f"depth {depth} below the commutator weight {weight}"
                return oracle.check_leading_coords(rank, letters, depth, coords)
            return check

        def axioms_check(report, exc):
            if not report.passed or report.skipped_words or report.skipped_pairs:
                return f"axiom report failed: {report.summary()}"
            if report.words_checked != len(oracle.ball(2, self.AXIOM_RADIUS)):
                return f"checked {report.words_checked} words"
            return None

        queries = []
        for spec in specs:
            kind = spec[0]
            if kind == "induced":
                _, rank, level, draws = spec
                phi = ia_product(rank, draws)
                queries.append(Query(kind, lambda p=phi, lv=level: go.induced_matrix(p, lv),
                                     induced_check(rank, level), shape=(kind, rank, level)))
            elif kind == "coords":
                _, rank, cap, letters, weight = spec
                w = go.Word(rank, letters)
                queries.append(Query(kind, lambda w=w, c=cap: go.leading_coords(w, c),
                                     coords_check(rank, letters, weight),
                                     shape=(kind, rank, cap, len(letters)) if weight == 1
                                     else ("commutator", rank, weight)))
            else:
                levels = tuple(go.FlagOrdering(rows) for rows in spec[1])
                ordering = go.StandardOrdering(2, len(levels), levels)
                queries.append(Query(
                    kind, lambda o=ordering: go.verify_cone_axioms(o, self.AXIOM_RADIUS),
                    axioms_check, shape=(kind,)))
        return queries


WORKLOADS = {w.name: w for w in (Cones(), Separate(), Quotients())}
