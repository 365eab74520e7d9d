import contextlib
import functools
import io
import json
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grouporders import znord
from grouporders.cli import main
from grouporders.stdord import identity_ordering, ordering_from_json, separate
from grouporders.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zn_witness(capsys):
    code, out, _ = run(capsys, "zn", "witness", "--matrix", "1 1; 0 1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["sign"] != data["sign_after"]
    assert data["flag"]["n"] == 2


def test_zn_sign_and_act(capsys):
    code, out, _ = run(capsys, "zn", "sign", "--matrix", "1 0; 0 1",
                       "--vector", "-1 7")
    assert code == 0 and out.strip() == "Negative"
    code, out, _ = run(capsys, "zn", "act", "--matrix", "1 1; 0 1",
                       "--flag", "1 0; 0 1")
    assert code == 0


def test_zn_realize_negative_result(capsys):
    code, _, err = run(capsys, "zn", "realize", "--vectors", "1 0; -1 0")
    assert code == 2
    assert "NoCone" in err


def test_free_separate_common_root(capsys):
    code, _, err = run(capsys, "free", "separate", "x1^2", "x1")
    assert code == 2
    assert "CommonRoot" in err


def test_free_separate_twisted(capsys):
    code, out, _ = run(capsys, "free", "separate", "x1 x2", "x2 x1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "twisted"


def test_free_sign_compare_depth(capsys):
    code, out, _ = run(capsys, "free", "sign", "x1^-1 x2")
    assert code == 0 and out.strip() == "Negative"
    code, out, _ = run(capsys, "free", "compare", "x1", "x1 x2")
    assert code == 0 and out.strip() == "Less"
    code, out, _ = run(capsys, "free", "depth", "x1 x2 x1^-1 x2^-1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "free", "depth", "x1 x2 x1^-1 x2^-1", "--cap", "1")
    assert code == 3


def test_free_axioms(capsys):
    code, out, _ = run(capsys, "free", "axioms", "--radius", "2")
    assert code == 0
    assert "totality=ok" in out


def test_free_sign_accepts_inline_ordering_json(capsys):
    code, out, _ = run(capsys, "free", "separate", "x1", "x2", "--json")
    ordering_json = out
    code, out, _ = run(capsys, "free", "sign", "x2",
                       "--ordering", ordering_json)
    assert code == 0 and out.strip() == "Negative"


def test_aut_witness_and_root(capsys):
    code, out, _ = run(capsys, "aut", "witness", "x1 -> x1 x2 ; x2 -> x2", "--json")
    assert code == 0
    data = json.loads(out)
    assert {data["sign_before"], data["sign_after"]} == {"+", "-"}
    code, out, _ = run(capsys, "aut", "root", "x2^-1 x1^3 x2")
    assert code == 0 and out.strip() == "x2^-1 x1 x2 ^ 3"


def test_aut_common_power(capsys):
    code, out, _ = run(capsys, "aut", "common-power", "x1^2", "x1^3")
    assert code == 0 and "g^3 = k^2" in out
    code, out, _ = run(capsys, "aut", "common-power", "x1", "x2")
    assert code == 2


def test_aut_boundary(capsys):
    code, out, _ = run(capsys, "aut", "boundary", "x1 -> x1 x2 ; x2 -> x2")
    assert code == 0 and out.strip() == "x1"


def test_aut_witness_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "aut", "witness", "x1 -> x1")
    assert code == 1
    assert "Identity" in err


def test_klein_commands(capsys):
    code, out, _ = run(capsys, "klein", "mul", "y", "x")
    assert code == 0 and out.strip() == "x y^-1"
    code, out, _ = run(capsys, "klein", "orderings", "--json")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "klein", "pull", "x -> x^-1 ; y -> y^-1", "++")
    assert code == 0 and out.strip() == "(-,-)"
    code, out, _ = run(capsys, "klein", "table")
    assert code == 0
    assert "Z/2 x Z/2 = True" in out
    assert "faithful = False" in out


@pytest.mark.parametrize("text,expected", [("++", "(-,-)"), ("(+,-)", "(-,+)")])
def test_klein_pull_reads_both_ordering_forms(capsys, text, expected):
    code, out, _ = run(capsys, "klein", "pull", "x -> x^-1 ; y -> y^-1", text)
    assert code == 0 and out.strip() == expected


def _one_line_error(code, err, name):
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"{name}: ")


@pytest.mark.parametrize("text", ["", "()", "xyz", "+"])
def test_klein_pull_rejects_malformed_orderings(capsys, text):
    code, _, err = run(capsys, "klein", "pull", "x -> x y ; y -> y", text)
    _one_line_error(code, err, "ParseError")


@pytest.mark.parametrize("spec", ['{"rank": 2}', '{"rank": 2, "class": 1, "levels": 5}'])
def test_malformed_ordering_json_exits_1(capsys, spec):
    code, _, err = run(capsys, "free", "sign", "x1", "--ordering", spec)
    _one_line_error(code, err, "ParseError")


def test_axioms_radius_below_one_exits_1(capsys):
    code, _, err = run(capsys, "free", "axioms", "--radius", "-1")
    _one_line_error(code, err, "InputError")


@pytest.mark.parametrize("argv", [
    ("aut", "witness", "x1 -> x1 x2 ; x3 -> x3 x1", "--rank", "2"),
    ("aut", "pull", "x3 -> x1", "x1 x2", "--rank", "2"),
    ("aut", "witness", "x3 -> x1 x3", "--rank", "2"),
])
def test_clause_beyond_the_rank_exits_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "ParseError")
    assert "x3 lies outside rank 2" in err


ZERO_JSON = json.dumps({"rank": 0, "class": 0, "levels": []})


@pytest.mark.parametrize("argv", [
    ("free", "axioms", "--rank", "0", "--radius", "1"),
    ("free", "sign", "x1", "--rank", "0"),
    ("free", "distance", "--ordering1", ZERO_JSON, "--ordering2", ZERO_JSON),
])
def test_rank_below_one_exits_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert "rank" in err


@pytest.mark.parametrize("option", ["--rank", "--cap"])
def test_free_distance_takes_no_rank_or_cap(capsys, option):
    code, out, err = run(capsys, "free", "distance", "--ordering1", LEX_JSON,
                         "--ordering2", LEX_JSON, option, "2")
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {option} 2" in err


def test_klein_mul_large_exponent(capsys):
    code, out, _ = run(capsys, "klein", "mul", "y x^1000000001", "y^2")
    assert code == 0 and out.strip() == "x^1000000001 y"


def test_report_single_criterion(capsys):
    code, out, _ = run(capsys, "report", "--only", "10", "--json")
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["criterion"] == 10 and entry["passed"]


def test_bad_usage(capsys):
    assert run(capsys, "zn", "sign", "--matrix", "1 0; 0 1",
               "--vector", "not numbers")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_round_trip_through_files(tmp_path, capsys):
    code, out, _ = run(capsys, "free", "separate", "x1", "x2", "--json")
    path = tmp_path / "ordering.json"
    path.write_text(out)
    code, out, _ = run(capsys, "free", "distance",
                       "--ordering1", str(path), "--ordering2", str(path),
                       "--radius", "3")
    assert code == 0 and out.strip() == "3"


LEX_JSON = json.dumps(identity_ordering(2, 5).to_json())

# one invocation of every subcommand; each runs in text and in --json mode
SUBCOMMANDS = [
    ("zn", "sign", "--matrix", "1 0; 0 1", "--vector", "-1 7"),
    ("zn", "act", "--matrix", "1 1; 0 1", "--flag", "1 0; 0 1"),
    ("zn", "witness", "--matrix", "1 1; 0 1"),
    ("zn", "realize", "--vectors", "1 0; -1 1"),
    ("free", "depth", "x1 x2 x1^-1 x2^-1"),
    ("free", "coords", "x1 x2 x1^-1 x2^-1"),
    ("free", "magnus", "x1 x2^-1", "--cap", "3"),
    ("free", "sign", "x1^-1 x2", "--ordering", LEX_JSON),
    ("free", "compare", "x1", "x1 x2"),
    ("free", "separate", "x1 x2", "x2 x1"),
    ("free", "axioms", "--radius", "2"),
    ("free", "distance", "--ordering1", LEX_JSON, "--ordering2", LEX_JSON, "--radius", "2"),
    ("aut", "witness", "x1 -> x1 x2 ; x2 -> x2"),
    ("aut", "pull", "x1 -> x1 x2 ; x2 -> x2", "x1^-1 x2"),
    ("aut", "root", "x2^-1 x1^3 x2"),
    ("aut", "common-power", "x1^2", "x1^3"),
    ("aut", "boundary", "x1 -> x1 x2 ; x2 -> x2"),
    ("klein", "mul", "y", "x"),
    ("klein", "orderings"),
    ("klein", "pull", "x -> x y ; y -> y^-1", "+-"),
    ("klein", "table"),
    ("report", "--only", "10"),
]


def _without_timings(text):
    """Report lines carry wall-clock seconds, which differ between runs."""
    return re.sub(r'\d+\.\d+s\)|"seconds": [\d.e-]+', "<t>", text)


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: " ".join(a[:2]))
def test_every_subcommand_repeats_in_one_process(capsys, argv):
    # the parser is built once per process, so a second call must not differ
    for mode in ((), ("--json",)):
        first = run(capsys, *argv, *mode)
        second = run(capsys, *argv, *mode)
        assert first[0] == second[0] == 0
        assert _without_timings(first[1]) == _without_timings(second[1])
        assert first[2] == second[2]


def test_pinned_outputs(capsys):
    assert run(capsys, "free", "coords", "x1 x2 x1^-1 x2^-1")[1] == \
        "depth 2, coordinates [1]\n"
    code, out, _ = run(capsys, "free", "coords", "x1 x2 x1^-1 x2^-1", "--json")
    assert json.loads(out) == {"depth": 2, "coords": [1]}
    series = "1 + X1 - X2 - X1 X2 + X2 X2 + X1 X2 X2 - X2 X2 X2"
    assert run(capsys, "free", "magnus", "x1 x2^-1", "--cap", "3")[1] == series + "\n"
    code, out, _ = run(capsys, "free", "magnus", "x1 x2^-1", "--cap", "3", "--json")
    assert json.loads(out) == {"series": series}
    assert run(capsys, "aut", "pull", "x1 -> x1 x2 ; x2 -> x2", "x1^-1 x2")[1] == \
        "Negative\n"
    code, out, _ = run(capsys, "zn", "act", "--matrix", "1 1; 0 1",
                       "--flag", "1 0; 0 1", "--json")
    assert json.loads(out) == {"n": 2, "rows": [["1", "1"], ["0", "1"]]}
    assert run(capsys, "zn", "realize", "--vectors", "1 0; -1 1")[1] == "1 2; 1 0\n"
    code, out, _ = run(capsys, "klein", "pull", "x -> x y ; y -> y^-1", "+-", "--json")
    assert json.loads(out) == {"eps": 1, "delta": 1}
    code, out, _ = run(capsys, "klein", "table", "--json")
    names = ["1", "a1", "a3", "a1a3"]
    product = {("1", n): n for n in names}
    product.update({("a1", "a1"): "1", ("a1", "a3"): "a1a3", ("a1", "a1a3"): "a3",
                    ("a3", "a3"): "1", ("a3", "a1a3"): "a1", ("a1a3", "a1a3"): "1"})
    product.update({(b, a): c for (a, b), c in list(product.items())})
    assert json.loads(out) == {
        "classes": names,
        "multiplication": {f"{a},{b}": product[(a, b)] for a in names for b in names},
        "klein_four_group": True,
        "actions": {"1": [0, 1, 2, 3], "a1": [0, 1, 2, 3],
                    "a3": [3, 2, 1, 0], "a1a3": [3, 2, 1, 0]},
        "action_kernel": ["1", "a1"],
        "faithful_on_orderings": False,
        "inner_fixing_everything": "y",
        "conjugacy_orbits": [[0, 1], [2, 3]],
    }


@pytest.mark.parametrize("argv", [
    ("zn", "sign", "--matrix", "1/0", "--vector", "1"),
    ("zn", "act", "--matrix", "0 1; 1 0", "--flag", "1/0 0; 0 1"),
    ("free", "depth", "x1^1000000000000"),
])
def test_zero_denominators_and_overlong_words_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "ParseError")


@pytest.mark.parametrize("only", ["0", "11", "-1"])
def test_report_only_outside_the_criteria_exits_1(capsys, only):
    code, out, err = run(capsys, "report", "--only", only)
    _one_line_error(code, err, "InputError")
    assert out == "" and f"criterion {only} outside 1..10" in err


def test_axioms_beyond_the_ball_bound_exits_1(capsys):
    code, _, err = run(capsys, "free", "axioms", "--radius", "9")
    _one_line_error(code, err, "InputError")
    assert "holds more than" in err


def test_magnus_pin_with_inverse_runs(capsys):
    series = " ".join([  # degrees 0..5, each starting a line
        "1",
        "- 4 X1 - X2",
        "+ 10 X1 X1 + 5 X1 X2 - X2 X1 + X2 X2",
        "- 20 X1 X1 X1 - 14 X1 X1 X2 + 3 X1 X2 X1 - 6 X1 X2 X2 + X2 X1 X1",
        "+ 2 X2 X1 X2 - X2 X2 X2",
        "+ 35 X1 X1 X1 X1 + 30 X1 X1 X1 X2 - 6 X1 X1 X2 X1 + 18 X1 X1 X2 X2",
        "- 3 X1 X2 X1 X1 - 6 X1 X2 X1 X2 + 7 X1 X2 X2 X2 - X2 X1 X1 X1",
        "- 2 X2 X1 X1 X2 - 3 X2 X1 X2 X2 + X2 X2 X2 X2",
        "- 56 X1 X1 X1 X1 X1 - 55 X1 X1 X1 X1 X2 + 10 X1 X1 X1 X2 X1",
        "- 40 X1 X1 X1 X2 X2 + 6 X1 X1 X2 X1 X1 + 12 X1 X1 X2 X1 X2",
        "- 22 X1 X1 X2 X2 X2 + 3 X1 X2 X1 X1 X1 + 6 X1 X2 X1 X1 X2 + 9 X1 X2 X1 X2 X2",
        "- 8 X1 X2 X2 X2 X2 + X2 X1 X1 X1 X1 + 2 X2 X1 X1 X1 X2 + 3 X2 X1 X1 X2 X2",
        "+ 4 X2 X1 X2 X2 X2 - X2 X2 X2 X2 X2"])
    code, out, _ = run(capsys, "free", "magnus", "x1^-3 x2 x1^-1 x2^-2", "--rank", "2",
                       "--cap", "5")
    assert (code, out) == (0, series + "\n")


@pytest.mark.parametrize("argv", [
    ("free", "magnus", "x1 x2 x1^-1 x2^-1 x1^2 x2^-3", "--cap", "40"),
    ("free", "depth", "x1 x2 x1^-1 x2^-1", "--cap", "100001"),
    ("free", "magnus", "1", "--rank", "2", "--cap", "1000000000"),
])
def test_series_beyond_the_term_bound_exits_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert "may hold more than" in err


@pytest.mark.parametrize("argv", [
    ("free", "sign", "x3", "--ordering", LEX_JSON),
    ("free", "compare", "x1", "x2 x0", "--ordering", LEX_JSON),
    ("free", "separate", "x1", "x3", "--rank", "2"),
    ("aut", "pull", "x1 -> x1 x2", "x3", "--rank", "2"),
])
def test_words_outside_the_rank_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "ParseError")


TWISTED_JSON = json.dumps(
    separate(parse_word("x1 x2", 2), parse_word("x2 x1", 2)).to_json())


def _with(spec, **fields):
    data = json.loads(spec)
    data.update(fields)
    return json.dumps(data)


@pytest.mark.parametrize("spec", [
    _with(LEX_JSON, rank=2.5),
    _with(LEX_JSON, rank=100_000_000),
    _with(LEX_JSON, rank=True),
    _with(LEX_JSON, **{"class": 5.0}),
    _with(TWISTED_JSON, pivot_level=1.0),
    _with(TWISTED_JSON, twist_degree="2"),
    _with(TWISTED_JSON, pivot_coords=[1.5, 1]),
    _with(TWISTED_JSON, rank=100_000_000),
])
def test_ordering_json_needs_integer_fields_and_a_bounded_rank(capsys, spec):
    code, _, err = run(capsys, "free", "sign", "x1", "--ordering", spec)
    _one_line_error(code, err, "InputError")


@functools.lru_cache(maxsize=1)
def _deep_twist_json():
    """Pivot level 1, twist degree 3: the constraints read a word realizing the pivot.
    Built on first use, so a failing separate fails the tests that read it, not the
    module's collection."""
    return json.dumps(separate(
        parse_word("x1", 2), parse_word("x1^2 x2 x1^-1 x2 x1 x2^-1 x1^-1 x2^-1", 2)).to_json())


@pytest.mark.parametrize("base, fields, message", [
    ("twisted", {"psi": [[[1, 2], "1"]]}, "InputError: psi does not annihilate"),
    ("twisted", {"twist_degree": 4}, "DimensionMismatch: need 1 <= pivot level d"),
    ("deep", {"pivot_coords": [10 ** 12, 1]}, "InputError: the word with"),
], ids=["psi", "twist-degree", "deep-pivot"])
def test_twisted_json_off_its_constraints_exits_1(capsys, base, fields, message):
    assert ordering_from_json(_deep_twist_json()).twist_degree == 3
    spec = _with(TWISTED_JSON if base == "twisted" else _deep_twist_json(), **fields)
    code, _, err = run(capsys, "free", "sign", "x1", "--ordering", spec)
    _one_line_error(code, err, message.split(":")[0])
    assert err.startswith(message)


@pytest.mark.parametrize("argv", [
    ("free", "sign", "x1 x2 x1^-1 x2^-1", "--rank", "3", "--cap", "9"),
    ("free", "axioms", "--rank", "400", "--radius", "1"),
    ("free", "compare", "x1", "x2", "--cap", "1000000000"),
    ("aut", "pull", "x1 -> x1 x2", "x1", "--rank", "2", "--cap", "12"),
])
def test_flags_beyond_the_entry_bound_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert "hold more than" in err


RANK_ONE_CLASS_TWO = json.dumps({"rank": 1, "class": 2, "levels": [{"rows": [["1"]]}] * 2})


@pytest.mark.parametrize("argv", [
    ("free", "sign", "x1", "--rank", "1"),
    ("free", "separate", "x1", "x1^-1", "--rank", "1"),
    ("free", "sign", "x1", "--ordering", RANK_ONE_CLASS_TWO),
])
def test_rank_one_beyond_class_one_exits_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert "rank 1 has no level-2 flag" in err and "F_1 has class 1" in err


def test_rank_one_at_class_one_answers(capsys):
    assert run(capsys, "free", "sign", "x1^-2", "--rank", "1", "--cap", "1")[:2] == \
        (0, "Negative\n")
    code, out, _ = run(capsys, "free", "separate", "x1", "x1^-1", "--rank", "1",
                       "--cap", "1", "--json")
    assert code == 0 and json.loads(out)["levels"] == [{"n": 1, "rows": [["1"]]}]


@pytest.mark.parametrize("argv", [
    ("free", "coords", "x1", "--rank", "3000000"),
    ("free", "separate", "x1", "x2", "--rank", "100000000", "--cap", "1"),
])
def test_layers_beyond_the_term_bound_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert "more than 100000 basic commutators" in err


def test_depth_one_at_a_huge_rank_reads_the_exponent_sums(capsys):
    start = time.perf_counter()
    assert run(capsys, "free", "depth", "x1 x2^2", "--rank", "100000000")[:2] == (0, "1\n")
    assert time.perf_counter() - start < 2  # no rank-sized list of exponent sums


FM_VECTORS = ("0 -36 0 15 36 36; -4 -36 -24 -36 -36 12; -24 24 0 36 -24 -8; "
              "15 15 -12 0 -4 -36; -4 -8 15 -8 24 24; 6 12 24 -36 6 -36")
FM_ROWS = ("-128135/376016 259801/5640240 -23483/94004 -155137/1410060 395491/1880080 "
           "-170479/1880080; 1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; "
           "0 0 0 0 1 0\n")


def test_realize_where_full_elimination_blows_up_answers_fast(capsys):
    start = time.perf_counter()
    assert run(capsys, "zn", "realize", "--vectors", FM_VECTORS)[:2] == (0, FM_ROWS)
    assert time.perf_counter() - start < 5  # full Fourier-Motzkin took 33-54 s


POINTED_16_IN_Z8 = (
    "1 -2 -1 0 -2 -2 2 -3; 1 -3 -2 -2 3 1 -2 0; 1 2 -3 0 0 0 0 0; 1 1 -2 3 0 -3 0 -2; "
    "1 3 -3 2 -1 1 0 0; 1 0 2 -3 2 -1 -3 3; 1 -3 0 1 3 0 -3 2; 1 -3 -1 -2 2 -3 0 2; "
    "1 1 -2 1 3 -2 1 -3; 1 1 -3 0 2 -2 -2 3; 1 1 0 2 1 0 -1 1; 1 -1 3 0 -2 -2 3 1; "
    "1 -3 1 2 -1 2 -1 2; 1 3 0 1 1 -2 -1 -2; 1 -1 1 -1 1 2 -3 3; 1 3 1 2 1 -2 -1 -2")


@pytest.mark.parametrize("argv, message", [
    (("zn", "realize", "--vectors", POINTED_16_IN_Z8),
     "16 vectors in dimension 8 have more than 10000 subsets"),
    (("aut", "witness", "x1 -> x1 x2", "--rank", "1000000", "--cap", "1"),
     "rank 1000000 is above 100000"),
    (("aut", "witness", "x1 -> x1 x2", "--rank", "10000000", "--cap", "1"),
     "rank 10000000 is above 100000"),
    (("aut", "pull", "x1 -> x1 x2", "x1", "--rank", "10000000", "--cap", "1"),
     "rank 10000000 is above 100000"),
    (("aut", "boundary", "x1 -> x1 x2", "--rank", "10000000"),
     "rank 10000000 is above 100000"),
    (("aut", "witness", "x1 -> x1 x2", "--rank", "2000", "--cap", "1"),
     "flags on levels 1..1 of rank 2000 hold more than"),
])
def test_oversized_cones_and_maps_exit_1_fast(capsys, argv, message):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    _one_line_error(code, err, "InputError")
    assert message in err and time.perf_counter() - start < 1


def test_lower_unitriangular_map_at_rank_60_answers_fast(capsys):
    # x1 -> x1 x2 never moves a lexicographic sign, so that scan is skipped
    start = time.perf_counter()
    code, out, _ = run(capsys, "aut", "witness", "x1 -> x1 x2", "--rank", "60", "--cap", "1")
    assert code == 0 and out.startswith("word x1^-1 x2^-1 x3^-1")
    assert time.perf_counter() - start < 1


def test_witness_scan_beyond_its_budget_answers_fast(capsys):
    # the first lexicographic witness of x2 -> x2 x1 comes after 3^58 vectors;
    # past the scans' budget the map moves the basis vector e2
    start = time.perf_counter()
    code, out, _ = run(capsys, "aut", "witness", "x2 -> x2 x1", "--rank", "60", "--cap", "1")
    assert code == 0 and out.startswith("word x2: Positive before, Negative after")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rank", ["10", "13"])
def test_witness_past_fixed_vectors_answers_fast(capsys, rank):
    # the map fixes every v with v1 = v2, the first 3^(rank-2) ball vectors
    start = time.perf_counter()
    code, out, _ = run(capsys, "aut", "witness", "x1 -> x1 x3 ; x2 -> x2 x3^-1",
                       "--rank", rank, "--cap", "1")
    assert code == 0 and out.startswith("word x1: Positive before, Negative after")
    assert time.perf_counter() - start < 1


def test_failed_certificate_exits_4_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(znord, "flag_sign", lambda flag, v: -1)
    code, _, err = run(capsys, "zn", "realize", "--vectors", "1 0")
    assert code == 4 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("CertificateError: ")


def _level_json(**level):
    return json.dumps({"rank": 2, "class": 1,
                       "levels": [dict(level, rows=[["1", "0"], ["0", "1"]])]})


@pytest.mark.parametrize("n", [7, 1, 2.0, "2", True, None])
def test_level_json_n_must_be_the_row_count(capsys, n):
    code, _, err = run(capsys, "free", "sign", "x1", "--ordering", _level_json(n=n))
    _one_line_error(code, err, "InputError")
    assert "rows" in err


def test_level_json_n_is_optional(capsys):
    assert run(capsys, "free", "sign", "x1", "--ordering", _level_json())[:2] == \
        (0, "Positive\n")


def _pieces(*texts, size=4, sep=" "):
    return st.lists(st.sampled_from(texts), max_size=size).map(sep.join)


# well-formed pieces are the majority, so that most draws get past the parser
_words = _pieces("x1", "x2", "x1^-1", "x2^-1", "x1^-2", "x2^3", "x3", "1", "x0", "x1^",
                 "^2", "x1^1.5", "y")
_small = st.sampled_from(["-1", "0", "1", "2", "2", "3", "3", "x"])
_matrices = _pieces("1 0", "0 1", "1 1", "0", "1/0", "1/2 0", "a", "", "1 0 0", size=3,
                    sep="; ")
_maps = _pieces("x1 -> x1 x2", "x2 -> x2", "x1 -> x2", "x2 -> x1", "x2 -> x1^-1", "x1 -> x1",
                "x3 -> x1", "x1 ->", "x1 x2", "x2 -> 1", size=3, sep=" ; ")
_klein_words = _pieces("x", "y", "x^2", "y^-1", "x^a", "z", "1", "x^1000000001")
_klein_maps = _pieces("x -> x y", "y -> y^-1", "x -> x^-1", "y -> x", "x", "z -> y",
                      size=2, sep=" ; ")
_junk = [2.0, 2.5, True, "2", None, [], {}, -1, 0, 10**8, [[1]], [{"rows": [[True]]}]]


@st.composite
def _orderings(draw):
    """'lex', a missing file, or ordering JSON with one field replaced or dropped."""
    data = json.loads(draw(st.sampled_from([LEX_JSON, TWISTED_JSON])))
    key = draw(st.sampled_from(sorted(data) + ["levels"]))
    if draw(st.booleans()):
        data[key] = draw(st.sampled_from(_junk))
    else:
        data.pop(key, None)
    return draw(st.sampled_from(["lex", "no-such-file", json.dumps(data)]))


_commands = st.one_of(
    st.tuples(st.just("zn"), st.just("sign"), st.just("--matrix"), _matrices,
              st.just("--vector"), _pieces("1", "-2", "0", "x")),
    st.tuples(st.just("zn"), st.just("act"), st.just("--matrix"), _matrices,
              st.just("--flag"), _matrices),
    st.tuples(st.just("zn"), st.just("witness"), st.just("--matrix"), _matrices),
    st.tuples(st.just("zn"), st.just("realize"), st.just("--vectors"), _matrices),
    st.tuples(st.just("free"), st.sampled_from(["depth", "coords", "magnus", "sign"]),
              _words, st.just("--rank"), _small, st.just("--cap"), _small),
    st.tuples(st.just("free"), st.sampled_from(["compare", "separate"]), _words, _words,
              st.just("--cap"), _small),
    st.tuples(st.just("free"), st.just("sign"), _words, st.just("--ordering"), _orderings()),
    st.tuples(st.just("free"), st.just("compare"), _words, _words, st.just("--ordering"),
              _orderings()),
    st.tuples(st.just("free"), st.just("axioms"), st.just("--ordering"), _orderings(),
              st.just("--radius"), _small),
    st.tuples(st.just("free"), st.just("distance"), st.just("--ordering1"), _orderings(),
              st.just("--ordering2"), _orderings(), st.just("--radius"), _small),
    st.tuples(st.just("aut"), st.sampled_from(["witness", "boundary"]), _maps,
              st.just("--rank"), _small),
    st.tuples(st.just("aut"), st.just("pull"), _maps, _words, st.just("--cap"), _small),
    st.tuples(st.just("aut"), st.just("root"), _words),
    st.tuples(st.just("aut"), st.just("common-power"), _words, _words),
    st.tuples(st.just("klein"), st.just("mul"), _klein_words, _klein_words),
    st.tuples(st.just("klein"), st.just("pull"), _klein_maps,
              st.sampled_from(["++", "(+,-)", "+", "()", "(-,+)", "+-+"])),
)


@settings(max_examples=300, deadline=None)
@given(_commands)
@example(("free", "sign", "x1 x2 x1^-1 x2^-1", "--ordering", _with(LEX_JSON, **{"class": 5.0})))
def test_malformed_input_gets_an_exit_code_not_a_traceback(argv):
    # no capsys: hypothesis reruns the body, and a function fixture is not reset
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) in (0, 1, 2, 3)
