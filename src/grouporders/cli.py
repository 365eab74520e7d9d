"""Command-line front end.

Exit codes: 0 success, 1 usage or input error, 2 certified negative result
(CommonRoot, NoCone, NoSeparator, NotFoundWithinBall), 3 class cap exceeded,
4 a certificate the library built failed its own re-check (CertificateError).
Diagnostics go to stderr; results to stdout, as JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import report as report_module
from .autact import (boundary_separation, common_power, ordering_witness,
                     primitive_root, pulled_sign)
from .errors import (CapExceeded, CertificateError, GroupOrderError, NegativeCertificate,
                     ParseError)
from .exactlin import matrix
from .hall import leading_coords
from .klein import (KleinOrdering, k_enumerate_orderings, k_mul, k_out_table, k_pull,
                    parse_klein, parse_klein_aut)
from .series import lcs_depth, magnus
from .stdord import (ball_distance, compare, identity_ordering, ordering_from_json,
                     separate, verify_cone_axioms)
from .words import parse_endomorphism, parse_word
from .znord import (FlagOrdering, IntegerAutomorphism, act, flag_sign, gl_witness,
                    realize_flag)

# the first family an error belongs to gives the exit code
EXIT_CODES = {NegativeCertificate: 2, CapExceeded: 3, CertificateError: 4,
              GroupOrderError: 1, ValueError: 1, OSError: 1}
SIGN_WORDS = {1: "Positive", -1: "Negative", 0: "Zero"}
COMPARE_WORDS = {-1: "Less", 0: "Equal", 1: "Greater"}


def _parse_matrix(text: str, integer: bool = False):
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append(chunk.split())
    if integer:
        return tuple(tuple(int(x) for x in row) for row in rows)
    return matrix(rows)


def _parse_vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split())


def _parse_klein_ordering(text: str) -> KleinOrdering:
    """``++``, ``+-``, ``-+``, ``--``, or the ``(+,-)`` form that orderings print."""
    signs = text[1:-1].split(",") if text[:1] == "(" and text[-1:] == ")" else list(text)
    if len(signs) != 2 or any(s not in ("+", "-") for s in signs):
        raise ParseError(f"bad Klein ordering {text!r}: expected ++, +-, -+, -- or (+,-)")
    eps, delta = (1 if s == "+" else -1 for s in signs)
    return KleinOrdering(eps, delta)


def _read_maybe_file(spec: str) -> str:
    if spec.lstrip().startswith("{"):
        return spec
    with open(spec, encoding="utf-8") as handle:
        return handle.read()


def _load_ordering(args) -> object:
    spec = args.ordering or "lex"
    if spec == "lex":
        return identity_ordering(args.rank, args.cap)
    return ordering_from_json(_read_maybe_file(spec))


def _rows_text(rows) -> str:
    """Flag rows as '1 0; 0 1'."""
    return "; ".join(" ".join(str(x) for x in row) for row in rows)


def _emit(args, payload, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


@lru_cache(maxsize=None)  # bounded: no arguments, so one parser
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it.

    Each command group's parser carries its runner as ``run``.
    """
    parser = argparse.ArgumentParser(
        prog="grouporders",
        description="exact computations with left-invariant group orderings")
    top = parser.add_subparsers(dest="group", required=True)

    def group(name, help_text, run):
        p = top.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p.add_subparsers(dest="command", required=True)

    zn = group("zn", "flag orderings on Z^n", _run_zn)
    p = zn.add_parser("sign", help="sign of a vector under a flag ordering")
    p.add_argument("--matrix", required=True, help="flag rows, e.g. '1 0; 0 1'")
    p.add_argument("--vector", required=True, help="integer vector, e.g. '2 -1'")
    p = zn.add_parser("act", help="pull a flag ordering back along a matrix")
    p.add_argument("--matrix", required=True, help="integer matrix with det +-1")
    p.add_argument("--flag", required=True, help="flag rows")
    p = zn.add_parser("witness", help="ordering and vector moved by a matrix")
    p.add_argument("--matrix", required=True)
    p = zn.add_parser("realize", help="flag ordering making all vectors positive")
    p.add_argument("--vectors", required=True, help="rows, e.g. '1 0; -1 1'")

    free = group("free", "orderings of free groups", _run_free)
    for name, extra in [
            ("depth", ["word"]), ("coords", ["word"]), ("magnus", ["word"]),
            ("sign", ["word"]), ("compare", ["word", "word2"]),
            ("separate", ["word", "word2"]), ("axioms", [])]:
        p = free.add_parser(name)
        for arg in extra:
            p.add_argument(arg)
        p.add_argument("--rank", type=int, default=2)
        p.add_argument("--cap", type=int, default=5)
        if name in ("sign", "compare", "axioms"):
            p.add_argument("--ordering", default="lex",
                           help="'lex', inline JSON, or a JSON file path")
        if name == "axioms":
            p.add_argument("--radius", type=int, default=3)
    p = free.add_parser("distance")
    p.add_argument("--ordering1", required=True)
    p.add_argument("--ordering2", required=True)
    p.add_argument("--radius", type=int, default=4)

    aut = group("aut", "automorphism actions", _run_aut)
    for name, help_text, operands in [
            ("witness", "ordering moved by an automorphism",
             {"map": "e.g. 'x1 -> x1 x2 ; x2 -> x2'"}),
            ("pull", "sign of a word in the pulled-back ordering",
             {"map": None, "word": None}),
            ("root", "primitive root of a word", {"word": None}),
            ("common-power", "minimal equal positive powers", {"word": None, "word2": None}),
            ("boundary", "word with no common power with its image", {"map": None})]:
        p = aut.add_parser(name, help=help_text)
        for arg, arg_help in operands.items():
            p.add_argument(arg, help=arg_help)
        p.add_argument("--rank", type=int, default=None)
        if name in ("witness", "pull"):
            p.add_argument("--cap", type=int, default=5)
        if name == "boundary":
            p.add_argument("--radius", type=int, default=3)

    klein = group("klein", "the Klein bottle group", _run_klein)
    p = klein.add_parser("mul", help="normal-form product")
    p.add_argument("left")
    p.add_argument("right")
    klein.add_parser("orderings", help="the four left orderings")
    p = klein.add_parser("pull", help="pull an ordering back along an automorphism")
    p.add_argument("map", help="e.g. 'x -> x y ; y -> y'")
    p.add_argument("ordering", help="++, +-, -+, -- or the printed form (+,-); "
                   "-+ and -- read as options, so give them as (-,+) and (-,-)")
    klein.add_parser("table", help="Out(K) and its action on the orderings")

    report = top.add_parser("report", help="run the acceptance suite")
    report.set_defaults(run=_run_report)
    report.add_argument("--seed", type=int, default=report_module.DEFAULT_SEED)
    report.add_argument("--only", type=int, default=None, help="criterion number 1..10")
    for leaf in [report, *zn.choices.values(), *free.choices.values(),
                 *aut.choices.values(), *klein.choices.values()]:
        leaf.add_argument("--json", action="store_true")
    return parser


def _run_zn(args) -> int:
    if args.command == "sign":
        flag = FlagOrdering(_parse_matrix(args.matrix))
        value = flag_sign(flag, _parse_vector(args.vector))
        _emit(args, {"sign": SIGN_WORDS[value]}, SIGN_WORDS[value])
    elif args.command == "act":
        a = IntegerAutomorphism(_parse_matrix(args.matrix, integer=True))
        flag = FlagOrdering(_parse_matrix(args.flag))
        result = act(a, flag)
        _emit(args, result.to_json(), _rows_text(result.rows))
    elif args.command == "witness":
        a = IntegerAutomorphism(_parse_matrix(args.matrix, integer=True))
        flag, v = gl_witness(a)
        payload = {"flag": flag.to_json(), "vector": list(v),
                   "sign": SIGN_WORDS[flag_sign(flag, v)],
                   "sign_after": SIGN_WORDS[flag_sign(flag, a.apply(v))]}
        _emit(args, payload,
              f"vector {list(v)} is {payload['sign']} but maps {payload['sign_after']}\n"
              f"flag rows: {_rows_text(flag.rows)}")
    elif args.command == "realize":
        vectors = _parse_matrix(args.vectors, integer=True)
        flag = realize_flag(vectors)
        _emit(args, flag.to_json(), _rows_text(flag.rows))
    return 0


def _run_free(args) -> int:
    if args.command == "depth":
        w = parse_word(args.word, args.rank)
        depth = lcs_depth(w, args.cap)
        text = str(depth) if depth is not None else f"deeper than cap {args.cap}"
        _emit(args, {"depth": depth}, text)
        return 0 if depth is not None else 3
    if args.command == "coords":
        w = parse_word(args.word, args.rank)
        depth, coords = leading_coords(w, args.cap)
        _emit(args, {"depth": depth, "coords": list(coords)},
              f"depth {depth}, coordinates {list(coords)}")
    elif args.command == "magnus":
        series = str(magnus(parse_word(args.word, args.rank), args.cap))
        _emit(args, {"series": series}, series)
    elif args.command == "sign":
        ordering = _load_ordering(args)
        value = ordering.sign(parse_word(args.word, ordering.rank))
        _emit(args, {"sign": SIGN_WORDS[value]}, SIGN_WORDS[value])
    elif args.command == "compare":
        ordering = _load_ordering(args)
        value = compare(ordering, parse_word(args.word, ordering.rank),
                        parse_word(args.word2, ordering.rank))
        _emit(args, {"comparison": COMPARE_WORDS[value]}, COMPARE_WORDS[value])
    elif args.command == "separate":
        g = parse_word(args.word, args.rank)
        k = parse_word(args.word2, args.rank)
        ordering = separate(g, k, args.cap)
        _emit(args, ordering.to_json(),
              f"{type(ordering).__name__} with {g} Positive, {k} Negative:\n"
              + json.dumps(ordering.to_json()))
    elif args.command == "axioms":
        ordering = _load_ordering(args)
        result = verify_cone_axioms(ordering, args.radius)
        payload = {"radius": result.radius, "totality": result.totality_ok,
                   "antisymmetry": result.antisymmetry_ok, "closure": result.closure_ok,
                   "conjugation": result.conjugation_ok,
                   "counterexample": result.counterexample}
        _emit(args, payload, result.summary())
        return 0 if result.passed else 2
    elif args.command == "distance":
        o1 = ordering_from_json(_read_maybe_file(args.ordering1))
        o2 = ordering_from_json(_read_maybe_file(args.ordering2))
        value = ball_distance(o1, o2, args.radius)
        _emit(args, {"agreement_radius": value}, str(value))
    return 0


def _run_aut(args) -> int:
    if args.command == "witness":
        phi = parse_endomorphism(args.map, args.rank)
        witness = ordering_witness(phi, args.cap)
        _emit(args, witness.to_json(),
              f"word {witness.word}: {SIGN_WORDS[witness.sign_before]} before, "
              f"{SIGN_WORDS[witness.sign_after]} after\n"
              + json.dumps(witness.ordering.to_json()))
    elif args.command == "pull":
        phi = parse_endomorphism(args.map, args.rank)
        ordering = identity_ordering(phi.rank, args.cap)
        value = pulled_sign(phi, ordering, parse_word(args.word, phi.rank))
        _emit(args, {"sign": SIGN_WORDS[value]}, SIGN_WORDS[value])
    elif args.command == "root":
        decomposition = primitive_root(parse_word(args.word, args.rank))
        _emit(args, {"root": str(decomposition.root), "exponent": decomposition.exponent},
              f"{decomposition.root} ^ {decomposition.exponent}")
    elif args.command == "common-power":
        rank = args.rank
        if rank is None:
            rank = max(parse_word(args.word).rank, parse_word(args.word2).rank)
        g = parse_word(args.word, rank)
        k = parse_word(args.word2, rank)
        result = common_power(g, k)
        if result is None:
            _emit(args, {"common_power": None}, "None")
            return 2
        _emit(args, {"common_power": list(result)}, f"g^{result[0]} = k^{result[1]}")
    elif args.command == "boundary":
        phi = parse_endomorphism(args.map, args.rank)
        g = boundary_separation(phi, args.radius)
        _emit(args, {"word": str(g)}, str(g))
    return 0


def _run_klein(args) -> int:
    if args.command == "mul":
        result = k_mul(parse_klein(args.left), parse_klein(args.right))
        _emit(args, {"a": result.a, "b": result.b}, str(result))
    elif args.command == "orderings":
        orderings = k_enumerate_orderings()
        _emit(args, {"count": len(orderings),
                     "orderings": [{"eps": o.eps, "delta": o.delta} for o in orderings]},
              "\n".join(str(o) for o in orderings))
    elif args.command == "pull":
        phi = parse_klein_aut(args.map)
        result = k_pull(phi, _parse_klein_ordering(args.ordering))
        _emit(args, {"eps": result.eps, "delta": result.delta}, str(result))
    elif args.command == "table":
        table = k_out_table()
        payload = {
            "classes": list(table.class_names),
            "multiplication": {f"{a},{b}": c for (a, b), c in table.multiplication.items()},
            "klein_four_group": table.is_klein_four_group,
            "actions": {k: list(v) for k, v in table.actions.items()},
            "action_kernel": list(table.action_kernel),
            "faithful_on_orderings": table.faithful_on_orderings,
            "inner_fixing_everything": str(table.inner_fixing_everything),
            "conjugacy_orbits": [list(o) for o in table.conjugacy_orbits],
        }
        lines = [f"Out(K) classes: {', '.join(table.class_names)}",
                 f"group law: Z/2 x Z/2 = {table.is_klein_four_group}"]
        for name in table.class_names:
            lines.append(f"  {name:5s} permutes orderings {table.actions[name]}")
        lines.append(f"action kernel: {table.action_kernel} -> faithful = "
                     f"{table.faithful_on_orderings}")
        lines.append(f"inner automorphism by {table.inner_fixing_everything} "
                     "fixes all four orderings")
        lines.append(f"conjugation orbits of the cones: {table.conjugacy_orbits}")
        _emit(args, payload, "\n".join(lines))
    return 0


def _run_report(args) -> int:
    results = report_module.run_all(args.seed, args.only)
    _emit(args, [{"criterion": r.number, "name": r.name, "passed": r.passed,
                  "detail": r.detail, "seconds": round(r.seconds, 3)} for r in results],
          "\n".join(r.line() for r in results))
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except tuple(EXIT_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
