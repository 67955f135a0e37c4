"""CLI behaviour: input grammars, output formats, and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntdice import Tournament, majority_digraph
from ntdice.cli import DICE_SCHEMA, dice_document, main, parse_dice_input

CLASSIC_WORD = "acbbaccba"
CLASSIC_ROWS = "a: 9 5 1\nb: 8 4 3\nc: 7 6 2"


def ntdice_env(**extra):
    """Environment for a ``python -m ntdice`` child that imports this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def stdin_of(text):
    """A text stream with a byte buffer underneath, as the real stdin has."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", stdin_of(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_no_floats(value):
    assert not isinstance(value, float), f"float leaked into JSON: {value!r}"
    if isinstance(value, dict):
        for v in value.values():
            assert_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            assert_no_floats(v)


# -- verify ----------------------------------------------------------------------

def test_verify_word_positive_exit(run):
    code, out, _ = run(["verify", CLASSIC_WORD])
    assert code == 0
    assert "balanced-nontransitive" in out
    assert "5/9" in out
    assert "face-sums: 15 15 15" in out


def test_verify_rows_unbalanced_exit(run):
    code, out, _ = run(["verify", "A: 1 2 3 / B: 4 5 6 / C: 7 8 9"])
    assert code == 1
    assert "unbalanced" in out
    # Empty segments are skipped.
    assert run(["verify", "A: 1 2 3 / / B: 4 5 6 / C: 7 8 9 /"]) == (code, out, "")


def test_verify_doubled_word(run):
    code, out, _ = run(["verify", CLASSIC_WORD * 2])
    assert code == 0
    assert "19/36" in out


def test_verify_balanced_reverse_suggestion(run):
    code, out, _ = run(["verify", "a: 9 5 1\nb: 7 6 2\nc: 8 4 3"])
    assert code == 1
    assert "balanced-reverse" in out
    assert "reorder dice as a c b" in out


def test_verify_parse_error_exit(run):
    code, _, err = run(["verify", "a: 9 5 x"])
    assert code == 2
    assert "bad label 'x'" in err


def test_verify_bad_word_exit(run):
    code, _, err = run(["verify", "aabbbc"])
    assert code == 2
    assert "bad word" in err


def test_verify_reads_stdin(run):
    code, out, _ = run(["verify", "-"], stdin=CLASSIC_ROWS)
    assert code == 0
    assert "balanced-nontransitive" in out


def test_verify_reads_file(run, tmp_path):
    path = tmp_path / "dice.txt"
    path.write_text(CLASSIC_ROWS + "\n# a comment line\n")
    code, out, _ = run(["verify", str(path)])
    assert code == 0


def test_existing_file_wins_over_inline_word(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["verify", CLASSIC_WORD])[0] == 0
    (tmp_path / CLASSIC_WORD).write_text("")
    code, out, err = run(["verify", CLASSIC_WORD])
    assert_usage_error(code, out, err)
    assert err == "error: empty input\n"


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # Every command pays the import of ntdice.cli in a fresh process, and
    # these three modules alone cost about a quarter of it. -S keeps site
    # hooks from loading them first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import ntdice.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_non_utf8_stdin_is_usage_error_under_c_locale():
    proc = subprocess.run(
        [sys.executable, "-m", "ntdice", "verify", "-"],
        input=b"\xff\xfe a: 1",
        capture_output=True,
        env=ntdice_env(LC_ALL="C"),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: cannot read stdin: ")
    assert proc.stderr.count(b"\n") == 1


def test_verify_json_output_is_canonical(run):
    code, out, _ = run(["verify", CLASSIC_WORD, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "schema",
        "m",
        "n",
        "verdict",
        "method",
        "face_sums",
        "odds",
        "suggested_relabeling",
    ]
    assert doc["odds"] == {"wins": 5, "trials": 9, "display": "5/9"}
    assert_no_floats(doc)


def test_verify_accepts_json_document(run):
    code, out, _ = run(["gen", "--sides", "4", "--format", "json"])
    assert code == 0
    code, out2, _ = run(["verify", out, "--format", "json"])
    assert code == 0
    assert json.loads(out2)["verdict"] == "balanced-nontransitive"


def test_verify_rejects_inconsistent_document(run):
    doc = json.dumps(
        {"schema": "dice-set/1", "m": 3, "n": 4, "dice": {"a": [9, 5, 1], "b": [8, 4, 3], "c": [7, 6, 2]}}
    )
    code, _, err = run(["verify", doc])
    assert code == 2
    assert "'n'" in err


def test_verify_rejects_bool_labels(run):
    doc = '{"schema":"dice-set/1","m":2,"n":2,"dice":{"a":[true,2],"b":[3,4]}}'
    code, out, err = run(["verify", doc])
    assert code == 2
    assert out == ""
    assert "True" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("# a: 1", "no dice rows found"),
        ("a: 2 1 / c: 4 3", "dice must be named ['a', 'b'], got ['a', 'c']"),
        (
            '{"schema":"dice-set/1","dice":{"a":[2,1],"c":[4,3]}}',
            "dice must be named ['a', 'b'], got ['a', 'c']",
        ),
        ("a: 1 / A: 2", "line 1: die 'a' given twice"),
        ('{"schema": }', "bad JSON at line 1, column 12: Expecting value"),
        ('{"schema":"dice/0","dice":{}}', "expected schema 'dice-set/1', got 'dice/0'"),
        (
            '{"schema":"dice-set/1","dice":[]}',
            "document field 'dice' must map letters to label arrays",
        ),
        (
            '{"schema":"dice-set/1","dice":{"a":[2.0,1],"b":[3,4]}}',
            "label 2.0 on die a is not an integer",
        ),
    ],
    ids=[
        "no-rows", "misnamed-rows", "misnamed-json", "given-twice", "bad-json",
        "wrong-schema", "dice-not-a-map", "float-label",
    ],
)
def test_verify_refuses_malformed_dice_in_one_line(run, text, message):
    code, out, err = run(["verify", text])
    assert_usage_error(code, out, err)
    assert err == f"error: {message}\n"


def test_verify_directory_is_usage_error(run, tmp_path):
    assert_usage_error(*run(["verify", str(tmp_path)]))


def test_verify_non_utf8_file_is_usage_error(run, tmp_path):
    path = tmp_path / "dice.txt"
    path.write_bytes(b"a: 9 5 1\nb: 8 4 3\nc: 7 6 \xff\n")
    assert_usage_error(*run(["verify", str(path)]))


@pytest.mark.parametrize("row", ["5", "null"])
def test_verify_non_array_die_is_usage_error(run, row):
    doc = '{"schema":"dice-set/1","dice":{"a":%s,"b":[2]}}' % row
    assert_usage_error(*run(["verify", doc]))


@pytest.mark.parametrize(
    "labels", ["[" * 100_000, "[" + "1" * 5000 + "]"], ids=["deep", "long-int"]
)
def test_verify_unloadable_json_is_usage_error(run, labels):
    doc = '{"schema":"dice-set/1","dice":{"a":%s}}' % labels
    assert_usage_error(*run(["verify", doc]))



@pytest.mark.parametrize(
    "text,expected",
    [
        ("a: 1_0 / b: 2", "bad label '1_0'"),
        ("a: \u0661 / b: 2", "bad label '\u0661'"),  # ARABIC-INDIC DIGIT ONE
        ("a: 1 / b: \uff12", "bad label '\uff12'"),  # FULLWIDTH DIGIT TWO
        # The 5,000-digit token is echoed clipped: the whole line is expected.
        ("a: 1 / b: " + "2" * 5000, "error: line 1: bad label '" + "2" * 180 + "\u2026\n"),
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "long"],
)
def test_verify_row_labels_are_ascii_integers(run, text, expected):
    code, out, err = run(["verify", text])
    assert_usage_error(code, out, err)
    assert expected in err


@pytest.mark.parametrize(
    "field,value", [("m", "2.0"), ("n", "1.0"), ("n", "true"), ("m", '"2"')]
)
def test_verify_document_sizes_are_json_integers(run, field, value):
    doc = '{"schema":"dice-set/1","%s":%s,"dice":{"a":[1],"b":[2]}}' % (field, value)
    code, out, err = run(["verify", doc])
    assert_usage_error(code, out, err)
    assert f"document field {field!r} must be an integer, got {value}" in err


def test_verify_document_with_integer_sizes_still_parses(run):
    doc = '{"schema":"dice-set/1","m":2,"n":1,"dice":{"a":[1],"b":[2]}}'
    assert run(["verify", doc])[0] == 1


@pytest.mark.parametrize(
    "argv,start",
    [
        (["verify", "[" * 2000 + ": 1"], "error: line 1: bad die name '[[[["),
        (
            ["realize", "--tournament", "q" * 3000, "--sides", "2"],
            "error: cannot parse edge 'qqqq",
        ),
    ],
    ids=["die-name", "tournament"],
)
def test_long_error_lines_are_clipped(run, argv, start):
    code, out, err = run(argv)
    assert_usage_error(code, out, err)
    line = err.rstrip("\n")
    assert line.startswith(start) and line.endswith("\u2026")
    assert len(line) == 200 + len("error: ")


def test_longest_real_error_message_is_printed_whole(run):
    code, out, err = run(["fib", "--k", "6", "--balanced"])
    assert_usage_error(code, out, err)
    assert err.rstrip("\n").endswith("got k=6")
    assert "\u2026" not in err

# -- gen -------------------------------------------------------------------------

def test_gen_three_sides_is_the_classic_example(run):
    code, out, _ = run(["gen", "--sides", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dice-set/1"
    assert doc["dice"] == {"a": [9, 5, 1], "b": [8, 4, 3], "c": [7, 6, 2]}
    assert_no_floats(doc)


def test_gen_too_few_sides(run):
    code, _, err = run(["gen", "--sides", "2"])
    assert code == 2
    assert "at least 3 sides" in err


def test_gen_dice_without_a_catalog(run):
    # construct.base_example owns which dice counts gen builds.
    code, out, err = run(["gen", "--sides", "3", "--dice", "5"])
    assert_usage_error(code, out, err)
    assert err == "error: no base catalog for 5 dice\n"


def test_gen_four_dice_passes_verify(run):
    code, out, _ = run(["gen", "--sides", "9", "--dice", "4", "--format", "json"])
    assert code == 0
    code, out2, _ = run(["verify", out, "--format", "json"])
    assert code == 0
    doc = json.loads(out2)
    assert doc["verdict"] == "balanced-nontransitive"
    assert doc["method"] == "cycle"


def test_gen_text_round_trips_through_verify(run):
    code, out, _ = run(["gen", "--sides", "6"])
    assert code == 0
    code, _, _ = run(["verify", out])
    assert code == 0


def test_gen_output_is_deterministic(run):
    _, first, _ = run(["gen", "--sides", "7", "--format", "json"])
    _, second, _ = run(["gen", "--sides", "7", "--format", "json"])
    assert first == second


def test_emitted_document_reparses_identically(run):
    code, out, _ = run(["gen", "--sides", "5", "--format", "json"])
    doc = json.loads(out)
    from ntdice.cli import dice_document, parse_dice_input

    parsed = parse_dice_input(out)
    assert dice_document(parsed) == {k: doc[k] for k in ("schema", "m", "n", "dice")}


# -- fib -------------------------------------------------------------------------

def test_fib_savage_face_sums(run):
    code, out, _ = run(["fib", "--k", "5"])
    assert code == 0
    assert "face sums: 41 39 40" in out


def test_fib_balanced_face_sums(run):
    code, out, _ = run(["fib", "--k", "5", "--balanced"])
    assert code == 0
    assert "face sums: 40 40 40" in out


def test_fib_balanced_even_index_fails(run):
    code, _, err = run(["fib", "--k", "8", "--balanced"])
    assert code == 2
    assert "670, 674, 672" in err


def test_fib_small_index_fails(run):
    code, _, err = run(["fib", "--k", "3"])
    assert code == 2
    assert "k >= 4" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--sides", "100000000"], "n=100000000, m=3 needs 300000000 labels, over"),
        (
            ["gen", "--sides", "1000000000000000000"],
            "n=1000000000000000000, m=3 needs 3000000000000000000 labels, over",
        ),
        (["fib", "--k", "201"], "k=201 needs more labels than"),
        (["fib", "--k", "1000000000"], "k=1000000000 needs more labels than"),
        (
            ["realize", "--tournament", "1>2,2>3,1>3", "--sides", "100000000"],
            "n=100000000, m=3 needs 300000000 labels, over",
        ),
    ],
    ids=["gen-n1e8", "gen-n1e18", "fib-k201", "fib-k1e9", "realize-n1e8"],
)
def test_oversized_constructions_are_refused_in_one_line(argv, message):
    # A fresh process, so a construction that starts building anyway fails
    # by timeout or memory rather than taking the suite down with it.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ntdice", *argv],
        capture_output=True,
        text=True,
        env=ntdice_env(),
        timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message} the limit of 10000000\n"


# -- search ----------------------------------------------------------------------

def test_search_count_json(run):
    code, out, _ = run(["search", "--sides", "3", "--count", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "schema",
        "n",
        "m",
        "total_words",
        "balanced",
        "nontransitive",
        "balanced_nontransitive",
        "irreducible_bnt",
    ]
    assert doc["balanced_nontransitive"] == 6
    assert doc["irreducible_bnt"] == 6
    assert_no_floats(doc)


def test_search_count_text_is_pinned(run):
    code, out, _ = run(["search", "--sides", "3", "--count"])
    assert code == 0
    assert out == (
        "n: 3\nm: 3\ntotal-words: 1680\nbalanced: 12\nnontransitive: 15\n"
        "balanced-nontransitive: 6\nirreducible: 6\n"
    )


def test_search_count_is_the_default_mode(run):
    code, out, _ = run(["search", "--sides", "1"])
    assert code == 0
    assert "balanced-nontransitive: 0" in out


def test_search_list_streams_words(run):
    # --list prints one word a line whatever --format says.
    for extra in ([], ["--format", "text"], ["--format", "json"]):
        code, out, _ = run(["search", "--sides", "1", "--list", *extra])
        assert code == 0
        assert out.splitlines() == ["abc", "acb", "bac", "bca", "cab", "cba"]


def test_search_list_irreducible_only(run):
    code, out, _ = run(["search", "--sides", "3", "--list", "--irreducible-only"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert "acbbaccba" in lines


def test_search_irreducible_only_requires_list(run):
    code, _, err = run(["search", "--sides", "3", "--irreducible-only"])
    assert code == 2
    assert "--list" in err


def test_search_budget_exceeded(run):
    code, _, err = run(["search", "--sides", "8", "--budget", "1000"])
    assert code == 2
    assert "9465511770" in err


@pytest.mark.parametrize(
    "argv, size",
    [
        (["search", "--sides", "3100", "--count"], "about 10^4433 words at n=3100, m=3"),
        (
            ["realize", "--tournament", "1>2,2>3,3>4,4>1,1>3,2>4", "--sides", "2300"],
            "about 10^5533 words at n=2300, m=4",
        ),
        (
            ["search", "--sides", "1000000000", "--count"],
            "about 10^1431363755 words at n=1000000000, m=3",
        ),
        (["search", "--sides", "3000", "--list"], "about 10^4290 words at n=3000, m=3"),
    ],
    ids=["count-n3100", "realize-n2300", "count-n1e9", "list-n3000"],
)
def test_huge_word_spaces_are_refused_in_one_line(argv, size):
    # A fresh process, so a gate that computes (mn)! again fails by timeout
    # rather than hanging the suite.
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ntdice", *argv],
        capture_output=True,
        text=True,
        env=ntdice_env(),
        timeout=30,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {size} exceed budget 100000000\n"


def test_walks_longer_than_the_recursion_limit_answer(run):
    # 1200 letters: the walk is a loop, so no word length is too long for
    # the stack once the budget admits the word space.
    spec = "1>2,1>3,1>4,2>3,2>4,3>4"
    budget = ["--budget", str(10 ** 3000)]
    code, out, err = run(["realize", "--tournament", spec, "--sides", "300", *budget])
    assert (code, err) == (0, "")
    assert majority_digraph(parse_dice_input(out)) == Tournament.from_text(spec).edges
    # The listing never ends in any time a test has, so it runs in a child
    # that meets a closed pipe after its first word.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ntdice", "search", "--list", "--sides", "400", *budget],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ntdice_env(),
    )
    assert proc.stdout.readline() == b"a" * 400 + b"b" * 400 + b"c" * 400 + b"\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize(
    "token", ["1_0", "\u0661", "\uff12"], ids=["underscore", "arabic-indic", "fullwidth"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--sides"],
        ["gen", "--sides", "3", "--dice"],
        ["fib", "--k"],
        ["search", "--sides", "3", "--budget"],
        ["search", "--sides", "3", "--jobs"],
    ],
    ids=["sides", "dice", "k", "budget", "jobs"],
)
def test_options_are_ascii_integers(run, argv, token):
    # The grammar of a row label: int() alone would read each token.
    code, out, err = run([*argv, token])
    assert (code, out) == (2, "")
    expected = f"ntdice {argv[0]}: error: argument {argv[-1]}: invalid integer value: {token!r}"
    assert err.splitlines()[-1] == expected


def test_options_take_a_signed_ascii_integer(run):
    plus = run(["gen", "--sides", "+3"])
    assert plus[0] == 0 and plus == run(["gen", "--sides", "3"])


def test_search_jobs_flag_changes_nothing(run):
    _, serial, _ = run(["search", "--sides", "4", "--count", "--format", "json"])
    _, parallel, _ = run(["search", "--sides", "4", "--count", "--jobs", "2", "--format", "json"])
    assert serial == parallel


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--sides", "0"],
        ["search", "--sides", "3", "--dice", "1"],
        ["search", "--sides", "3", "--dice", "27"],
        ["search", "--sides", "3", "--dice", "1" + "0" * 20, "--list"],
        ["realize", "--tournament", "1>2", "--sides", "0"],
    ],
    ids=["no-sides", "one-die", "27-dice", "1e20-dice-list", "realize-no-sides"],
)
def test_search_size_errors_are_usage_errors(run, argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- realize ---------------------------------------------------------------------

def test_realize_no_sides_is_one_refusal(run):
    # The closed form (3 vertices) and the search (4) refuse n = 0 alike.
    results = [
        run(["realize", "--tournament", spec, "--sides", "0"])
        for spec in ("1>2,2>3,3>1", "1>2,2>3,3>4,4>1,3>1,2>4")
    ]
    assert results == [(2, "", "error: need at least one side, got n=0\n")] * 2


def test_realize_cycle_three_sides(run):
    code, out, _ = run(["realize", "--tournament", "1>2,2>3,3>1", "--sides", "3"])
    assert code == 0
    assert "a: 9 5 1" in out
    assert "a>b 5/9" in out


def test_realize_acyclic_one_side(run):
    code, out, _ = run(["realize", "--tournament", "1>2,1>3,2>3", "--sides", "1"])
    assert code == 0
    assert "a: 3" in out and "b: 2" in out and "c: 1" in out


def test_realize_incomplete_spec(run):
    code, _, err = run(["realize", "--tournament", "1>2,2>3", "--sides", "3"])
    assert code == 2
    assert "missing direction" in err


def test_realize_contradictory_spec(run):
    code, _, err = run(["realize", "--tournament", "1>2,2>1,1>3,2>3", "--sides", "3"])
    assert code == 2
    assert "contradictory" in err


@pytest.mark.parametrize(
    "spec,edge",
    [
        # ARABIC-INDIC DIGITS ONE, TWO and THREE
        ("\u0661>\u0662,\u0662>\u0663,\u0663>\u0661", "'\u0661>\u0662'"),
        ("1>2,2>3,3>1_0", "'3>1_0'"),
        # More digits than int() reads; the echo is clipped.
        ("1>2,2>3,3>" + "1" * 5000, "'3>" + "1" * 178 + "\u2026"),
    ],
    ids=["arabic-indic", "underscore", "long"],
)
def test_realize_vertices_are_ascii_integers(run, spec, edge):
    # The grammar of a row label: int() alone would read the first spec as
    # the 3-cycle and the second as naming vertex 10.
    code, out, err = run(["realize", "--tournament", spec, "--sides", "3"])
    assert_usage_error(code, out, err)
    assert err == f"error: cannot parse edge {edge}\n"


@pytest.mark.parametrize(
    "spec,edge", [("1>2,2>2,1>3,3>2", "2>2"), ("1>1", "1>1")], ids=["in-cycle", "alone"]
)
def test_realize_self_loop_echoes_the_edge(run, spec, edge):
    # Not a 0-based "bad edge (1, 1)", nor a count of vertices.
    code, out, err = run(["realize", "--tournament", spec, "--sides", "3"])
    assert_usage_error(code, out, err)
    assert err == f"error: cannot parse edge {edge!r}\n"


def test_realize_cyclic_too_few_sides(run):
    code, _, err = run(["realize", "--tournament", "1>2,2>3,3>1", "--sides", "2"])
    assert code == 2
    assert "at least 3 sides" in err


def test_realize_four_dice_witness(run):
    spec = "1>2,2>3,3>4,4>1,3>1,2>4"
    code, out, _ = run(["realize", "--tournament", spec, "--sides", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4
    assert_no_floats(doc)


def test_realize_exhausted_search_prints_none(run):
    spec = "1>2,2>3,3>1,1>4,2>4,3>4"
    code, out, _ = run(["realize", "--tournament", spec, "--sides", "1"])
    assert code == 1
    assert out.strip() == "none"


def test_realize_json_document_verifies(run):
    code, out, _ = run(
        ["realize", "--tournament", "1>2,2>3,3>1", "--sides", "5", "--format", "json"]
    )
    assert code == 0
    code, out2, _ = run(["verify", out, "--format", "json"])
    assert json.loads(out2)["verdict"] == "balanced-nontransitive"
    assert code == 0


def test_realize_reverse_cycle_verifies_as_reverse(run):
    # the reversed orientation is realized exactly, so the canonical
    # a>b>c cycle of the output runs backwards
    code, out, _ = run(
        ["realize", "--tournament", "1>3,3>2,2>1", "--sides", "5", "--format", "json"]
    )
    assert code == 0
    code, out2, _ = run(["verify", out, "--format", "json"])
    assert code == 1
    assert json.loads(out2)["verdict"] == "balanced-reverse"


# -- usage ------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(run):
    code, _, _ = run([])
    assert code == 2


def test_unknown_format_is_usage_error(run):
    code, _, _ = run(["verify", CLASSIC_WORD, "--format", "xml"])
    assert code == 2


def test_closed_pipe_exits_quietly():
    # n=4 lists 34,650 words, far more than a pipe buffer holds, so the
    # writer meets the closed pipe mid-stream.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ntdice", "search", "--sides", "4", "--list"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ntdice_env(),
    )
    assert proc.stdout.readline() == b"aaaabbbbcccc\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# -- argv contract -------------------------------------------------------------------

DIRECTORY, NON_UTF8 = "<directory>", "<non-utf8 file>"
VERIFY_INPUTS = [
    CLASSIC_WORD,
    CLASSIC_WORD * 2,
    "aabbbc",
    CLASSIC_ROWS,
    "a: 9 5 1\nb: 7 6 2\nc: 8 4 3",
    "a: 9 5 x",
    "a: 1 / a: 2",
    "",
    "-",
    '{"schema":"dice-set/1","dice":{"a":[9,5,1],"b":[8,4,3],"c":[7,6,2]}}',
    '{"schema":"dice-set/1","dice":{"a":5,"b":[2]}}',
    '{"schema":"dice-set/1","dice":{"a":null,"b":[2]}}',
    '{"schema":"dice-set/1","m":2,"n":2,"dice":{"a":[true,2],"b":[3,4]}}',
    '{"schema":"dice-set/1","dice":{"a":[1],"c":[2]}}',
    '{"schema": ',
    '{"schema":"dice-set/1","dice":{"a":' + "[" * 100_000 + "}}",
    DIRECTORY,
    NON_UTF8,
]
TOURNAMENTS = [
    "1>2,2>3,3>1",
    "1>3,3>2,2>1",
    "1>2,1>3,2>3",
    "1>2",
    "1>2,2>3,3>4,4>1,3>1,2>4",
    "1>2,2>3,3>1,1>4,2>4,3>4",
    "1>2,2>3",
    "1>2,2>1,1>3,2>3",
    "1>1",
    "0>1",
    "a>b",
    "",
]
SIDES = st.integers(-1, 3).map(str)
DICE = st.sampled_from(["1", "2", "3", "27"])
FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "xml"]])
SEARCH_MODES = [[], ["--count"], ["--list"], ["--count", "--list"]]
SEARCH_FLAGS = [["--irreducible-only"], ["--budget", "0"], ["--budget", "1000"], ["--jobs", "2"]]
STRAY_ARGVS = [[], ["bogus"], ["gen"], ["verify"], ["fib", "--k", "x"]]
STDIN = st.sampled_from(["", CLASSIC_ROWS, CLASSIC_WORD, "abc\x00"])


@st.composite
def argvs(draw):
    """argv from a fixed grammar, sized so every command runs in milliseconds."""
    command = draw(st.sampled_from(["verify", "gen", "fib", "search", "realize", None]))
    fmt = draw(FORMATS)
    if command == "verify":
        return ["verify", draw(st.sampled_from(VERIFY_INPUTS)), *fmt]
    if command == "gen":
        return ["gen", "--sides", draw(SIDES), "--dice", draw(DICE), *fmt]
    if command == "fib":
        balanced = draw(st.sampled_from([[], ["--balanced"]]))
        return ["fib", "--k", str(draw(st.integers(-1, 9))), *balanced, *fmt]
    if command == "search":
        mode = draw(st.sampled_from(SEARCH_MODES))
        flags = draw(st.lists(st.sampled_from(SEARCH_FLAGS), max_size=2))
        size = ["--sides", draw(SIDES), "--dice", draw(DICE)]
        return ["search", *size, *mode, *[token for flag in flags for token in flag], *fmt]
    if command == "realize":
        spec = draw(st.sampled_from(TOURNAMENTS))
        return ["realize", "--tournament", spec, "--sides", draw(SIDES), *fmt]
    return draw(st.sampled_from(STRAY_ARGVS))


@pytest.fixture(scope="module")
def unreadable(tmp_path_factory):
    root = tmp_path_factory.mktemp("unreadable")
    (root / "dice.txt").write_bytes(b"\xff\xfe a: 1")
    return {DIRECTORY: str(root), NON_UTF8: str(root / "dice.txt")}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=argvs(), stdin=STDIN)
def test_any_argv_keeps_the_exit_contract(unreadable, argv, stdin):
    argv = [unreadable.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    returned = True
    with redirect_stdout(out), redirect_stderr(err):
        with mock.patch("sys.stdin", stdin_of(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code, returned = exc.code, False
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if returned and code == 2:
        assert_usage_error(code, out, err)
    if code == 0 and argv[0] in ("gen", "fib", "realize") and "json" in argv:
        doc = json.loads(out)
        assert doc["schema"] == DICE_SCHEMA
        again = dice_document(parse_dice_input(out), doc["annotations"])
        assert json.dumps(again, indent=2) + "\n" == out


# -- free-form verify input ------------------------------------------------------------

# ASCII digits, then Arabic-Indic, extended Arabic-Indic, Devanagari,
# fullwidth and mathematical bold digits, which int() would also read.
DIGITS = "0123456789١۳१２\U0001d7cf"
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats()
    | st.text(alphabet=DIGITS + "abc-_ ", max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "m", "n", "dice", "schema"]), inner, max_size=4),
    max_leaves=12,
)
TOKENS = st.sampled_from(["0", "-1", "+4", "07", "1_0", "x", "2.0", "9" * 5000]) | st.text(
    alphabet=DIGITS, min_size=1, max_size=3
)


@st.composite
def label_rows(draw):
    """Label rows of the classic set, or of any dice set with 2..4 dice of 1..3 sides."""
    if draw(st.booleans()):
        return [[9, 5, 1], [8, 4, 3], [7, 6, 2]]
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    labels = draw(st.permutations(range(1, m * n + 1)))
    return [list(labels[x * n : (x + 1) * n]) for x in range(m)]


@st.composite
def documents(draw):
    """A valid ``dice-set/1`` document, or one with a field, die or label spoiled."""
    dice = draw(label_rows())
    doc = {"schema": DICE_SCHEMA, "m": len(dice), "n": len(dice[0])}
    doc["dice"] = {chr(97 + x): row for x, row in enumerate(dice)}
    spoil = draw(st.sampled_from(["none", "schema", "m", "n", "dice", "die", "label", "drop"]))
    if spoil in ("schema", "m", "n", "dice"):
        doc[spoil] = draw(JSON_VALUES)
    elif spoil == "die":
        doc["dice"][draw(st.sampled_from("abz"))] = draw(JSON_VALUES)
    elif spoil == "label":
        dice[0][0] = draw(JSON_VALUES)
    elif spoil == "drop":
        del doc[draw(st.sampled_from(["schema", "m", "n", "dice"]))]
    return json.dumps(doc)


@st.composite
def rows(draw):
    """``a: 9 5 1`` rows over newlines or slashes, or with one token spoiled."""
    tokens = [[chr(97 + x) + ":", *map(str, row)] for x, row in enumerate(draw(label_rows()))]
    if draw(st.booleans()):
        row = draw(st.sampled_from(tokens))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            TOKENS | st.sampled_from(["A:", "ab:", ":", "é:", "#"])
        )
    glue = draw(st.sampled_from(["\n", " / ", "/", "\n# note\n"]))
    return glue.join(" ".join(row) for row in tokens)


@st.composite
def words(draw):
    """A word with n of each of 2..4 letters, or with one letter spoiled."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    letters = draw(
        st.just(list("acbbaccba"))
        | st.permutations([chr(97 + x) for x in range(m)] * n)
    )
    if draw(st.booleans()):
        letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from("aeA1 а"))
    return "".join(letters)


NESTED = st.builds(
    lambda opened, closed, inside: "[" * opened + inside + "]" * closed,
    st.integers(0, 2000),
    st.integers(0, 2000),
    st.sampled_from(["", "1", "1, 2", '"a"']),
)
FREE_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)
PIECES = documents() | rows() | words() | NESTED | FREE_TEXT | JSON_VALUES.map(json.dumps)
MIXED = st.builds(
    str.join, st.sampled_from(["\n", " ", ":", "{"]), st.lists(PIECES, min_size=2, max_size=3)
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    text=PIECES | MIXED,
    via_stdin=st.booleans(),
    fmt=st.sampled_from([[], ["--format", "json"]]),
)
def test_any_verify_input_keeps_the_exit_contract(text, via_stdin, fmt):
    argv = ["verify", *fmt, "--", "-" if via_stdin else text]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with mock.patch("sys.stdin", stdin_of(text)):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert_usage_error(code, out, err)
    else:
        assert err == ""
