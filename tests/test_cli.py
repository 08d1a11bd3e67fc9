"""End-to-end command-line tests driving run() with captured streams."""

import itertools
import json
import re
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhier import cli, decide
from modhier.cli import QUERY_COMMANDS, build_parser, run
from modhier.decide import LEVELS

from command_lines import (
    ANSWERS, BATCH_ANSWERS, HELP_LINES, IRREGULAR_LINES, MALFORMED_LINES, Head, Tail,
)
from gen import count_calls

BENCH = Path(__file__).resolve().parent.parent / "bench"


def invoke(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def lines(text):
    return text.splitlines()


def line_ids(argvs):
    return [shlex.join(argv) or "no arguments" for argv in argvs]


# ---------------------------------------------------------------------------
# The answer table


def seen(stream, expected):
    """What a row's `expected` stream gives of `stream`: all of it, or as
    much of its head or tail as `expected` holds."""
    if isinstance(expected, Head):
        return stream[:len(expected)]
    if isinstance(expected, Tail):
        return stream[-len(expected):]
    return stream


@pytest.mark.parametrize("argv, answer", ANSWERS.items(), ids=line_ids(ANSWERS))
def test_each_line_gives_its_answer(argv, answer, capsys):
    code, out, err = invoke(*argv)
    assert (code, seen(out, answer[1]), seen(err, answer[2])) == answer
    # `run` writes to the streams it is given, argparse's text included.
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("data, answer", BATCH_ANSWERS.items(), ids=map(repr, BATCH_ANSWERS))
def test_each_batch_file_gives_its_answer(data, answer, capsys, monkeypatch, tmp_path):
    (tmp_path / "queries.txt").write_bytes(data if isinstance(data, bytes) else data.encode())
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke("batch", "queries.txt")
    assert (code, seen(out, answer[1]), seen(err, answer[2])) == answer
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# Decision commands, text output


def test_cover_accepts_several_constraints(monkeypatch):
    # The separator search takes one constraint, so a positive answer
    # against several carries no witness.
    searches = count_calls(monkeypatch, decide, "pol_mod_separator_search")
    code, out, _ = invoke(
        "cover", "--level", "1/2", "--alphabet", "a", "--witness", "(aa)*", "a(aa)*",
        "a(aaaa)*", "--no-stats",
    )
    assert (code, lines(out)) == (0, ["RESULT: coverable"])
    assert not searches


def test_stats_line_present_by_default():
    code, out, _ = invoke("separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*")
    assert code == 0
    result, stats = lines(out)
    assert result == "RESULT: separable"
    assert stats.startswith("STATS: monoid=2 iterations=")
    assert " ms=" in stats


# ---------------------------------------------------------------------------
# Imprint output


ENGINES_BY_LEVEL = {
    "1/2": ["pol_imprint"],
    "1": ["bpol_iopti", "bpol_opti"],
    "3/2": ["pbpol_iopti", "pbpol_pointed_imprint"],
}


@pytest.mark.parametrize("level", sorted(ENGINES_BY_LEVEL))
def test_emit_imprint_runs_each_engine_once(monkeypatch, level):
    # The engines run through `decide`'s bindings of them.
    names = [name for group in ENGINES_BY_LEVEL.values() for name in group]
    calls = {name: count_calls(monkeypatch, decide, name) for name in names}
    code, out, _ = invoke(
        "separate", "--level", level, "--alphabet", "ab", "a*", "(a|b)*b(a|b)*",
        "--emit-imprint", "--no-stats",
    )
    assert code == 0
    assert lines(out)[-1].startswith("IMPRINT: ")
    runs = {name: len(c) for name, c in calls.items() if c}
    assert runs == dict.fromkeys(ENGINES_BY_LEVEL[level], 1)


@pytest.mark.parametrize("argv", [
    ["separate", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*"],
    ["separate", "--level", "0", "--alphabet", "a", "--witness", "(aa)*", "a(aa)*"],
    ["member", "--level", "0", "--alphabet", "a", "--witness", "(aa)*"],
])
def test_emit_imprint_at_level_zero_is_refused_before_deciding(monkeypatch, argv):
    calls = []

    def deciding(*args, **kwargs):
        calls.append(args)
        raise AssertionError("decided a query whose imprint cannot be shown")

    monkeypatch.setattr(cli, "separable", deciding)
    monkeypatch.setattr(cli, "member", deciding)
    code, out, err = invoke(*argv, "--emit-imprint")
    assert (code, out, err) == (4, "", "error: imprints are not defined at level 0\n")
    assert calls == []


def iterations_stat(out: str) -> str:
    (stats,) = [line for line in lines(out) if line.startswith("STATS: ")]
    (field,) = [word for word in stats.split() if word.startswith("iterations=")]
    return field


@pytest.mark.parametrize("level", sorted(ENGINES_BY_LEVEL))
def test_imprint_and_cover_report_the_same_iterations(level):
    regexes = ["a*", "(a|b)*b(a|b)*"]
    code, imprinted, _ = invoke("imprint", "--level", level, "--alphabet", "ab", *regexes)
    assert code == 0
    code, covered, _ = invoke("cover", "--level", level, "--alphabet", "ab", *regexes)
    assert code == 0
    assert iterations_stat(imprinted) == iterations_stat(covered)


# ---------------------------------------------------------------------------
# JSON output


def test_json_payload_shape():
    code, out, _ = invoke(
        "separate", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*",
        "--witness", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "separate"
    assert payload["level"] == "0"
    assert payload["basis"] == "mod"
    assert payload["answer"] is True
    assert payload["witness"] == {"modulus": 2}
    assert set(payload["stats"]) == {"ms"}


# ---------------------------------------------------------------------------
# Exit codes


@pytest.mark.parametrize(
    "regex, shallow",
    [
        ("|".join(["a", "b", "ab", "ba"] * 300), "a|b|ab|ba"),
        ("(" * 2000 + "a" + ")" * 2000, "a"),
        ("~" * 2000 + "(a|b)*", "(a|b)*"),
    ],
    ids=["1200-way alternation", "2000 nested parentheses", "2000 complements"],
)
def test_deep_regexes_answer_as_shallow_ones(regex, shallow):
    # Nesting far past Python's recursion limit: parsing and compiling use explicit stacks.
    for level in ("0", "1/2"):
        deep = invoke("member", "--level", level, "--alphabet", "ab", "--no-stats", regex)
        assert deep == invoke("member", "--level", level, "--alphabet", "ab", "--no-stats", shallow)
        assert deep[0] == 0


def test_level_zero_length_profile_exits_three_in_bounded_time():
    # 68 states whose length period is 3 * 4 * 5 * 7 * 11 * 13 * 17 = 1,021,020.
    cycles = [3, 4, 5, 7, 11, 13, 17]
    regex = "|".join("b" * i + "a(" + "(a|b)" * c + ")*" for i, c in enumerate(cycles))
    started = time.process_time()
    code, out, err = invoke("separate", "--level", "0", "--alphabet", "ab", regex, "b*")
    assert time.process_time() - started < 5
    assert (code, out) == (3, "")
    assert "length profile state budget exceeded (limit 4096)" in err


def test_product_of_prime_cycles_exits_three_in_bounded_time():
    # The product automaton of the nine cycles has 223,092,870 states.
    regexes = ["(%s)*" % ("a" * p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    started = time.process_time()
    code, out, err = invoke("cover", "--level", "1/2", "--alphabet", "a", *regexes)
    assert time.process_time() - started < 2
    assert (code, out) == (3, "")
    assert "monoid budget exceeded (limit 20000)" in err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("no order-minimal block value below the given bound")

    monkeypatch.setattr("modhier.cli.member", broken)
    with pytest.raises(ValueError, match="order-minimal"):
        invoke("member", "--level", "1", "--alphabet", "ab", "a*")


X = "(a|b)*ab"
EVEN = "((a|b)(a|b))*"


# Each query names one language and its complements, then the same
# languages written so that each compiles on its own.
@pytest.mark.parametrize(
    "command, level, shared, apart",
    [
        ("imprint", "1/2", [X, f"~({X})", f"~~({X})", X], [X, f"~({X}) & ~0", f"({X}) | 0", f"{X} & ~0"]),
        ("imprint", "3/2", [f"~({X})", X, X, f"~~({X})"], [f"~({X}) & ~0", X, f"{X} & ~0", f"({X}) | 0"]),
        ("separate", "0", [f"~({EVEN})", EVEN], [f"~({EVEN}) & ~0", EVEN]),
        ("separate", "0", ["aa", "~(aa)"], ["aa", "~(aa) & ~0"]),
    ],
)
def test_a_language_and_its_complements_compile_once(monkeypatch, command, level, shared, apart):
    compilations = count_calls(monkeypatch, cli, "compile_regex")
    head = (command, "--level", level, "--alphabet", "ab", "--witness", "--no-stats")
    answer = invoke(*head, *shared)
    assert len(compilations) == 1
    assert invoke(*head, *apart) == answer
    assert len(compilations) == 1 + len(apart)
    assert answer[0] == 0


# ---------------------------------------------------------------------------
# Parser wiring


# A valid query of each command, and a batch file of one good and one
# bad line, each with its exit code.
BATCH_FILE = "<batch file>"
VALID_LINES = {
    ("member", "--level", "1", "--alphabet", "ab", "a*"): 0,
    ("separate", "--level", "0", "--alphabet", "a", "(aa)*", "~((aa)*)", "--witness"): 0,
    ("cover", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*", "--json"): 0,
    ("imprint", "--level", "3/2", "--alphabet", "a", "(aa)*", "--no-stats"): 0,
    ("member", "--level=1/2", "--alphabet=ab", "--no-stats", "--", "a*"): 0,
    ("batch", BATCH_FILE): 2,
}
SHARED_LINES = [*VALID_LINES.items(), *HELP_LINES.items(), *MALFORMED_LINES.items(),
                *IRREGULAR_LINES.items()]
MS = re.compile(r'(ms=|"ms": )[0-9.e+-]+')


@pytest.mark.parametrize("argv, exit_code", SHARED_LINES, ids=line_ids(argv for argv, _ in SHARED_LINES))
def test_each_line_runs_as_when_parsed_whole_at_the_top(argv, exit_code, monkeypatch, tmp_path):
    # `run` hands a line to its command's parser; the reference parses the
    # whole line with the top-level parser, as `parse_args` does.
    script = tmp_path / "queries.txt"
    script.write_text('member --level 1 --alphabet ab "a*"\nmember --level 1 --alphabet ab a* --bogus\n')
    line = [str(script) if arg == BATCH_FILE else arg for arg in argv]

    def masked():
        code, out, err = invoke(*line)
        return code, MS.sub(r"\1#", out), err

    once = masked()
    assert once[0] == exit_code
    # Help goes to the out stream alone; a malformed line never exits 0.
    if argv in HELP_LINES:
        assert (once[1][:len("usage: modhier")], once[2]) == ("usage: modhier", "")
    assert exit_code or argv not in MALFORMED_LINES
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert masked() == once


def parsed(parse, argv):
    """What `parse(argv)` gives, and what it prints: a namespace, or the
    exit code of the `SystemExit` it raised."""
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# Pieces of a query line, most of them well formed: options written out
# in full with valid values. The rest are what argparse reads on its
# own: abbreviations, `=`, invalid or missing values, `-h`, `--`, and
# `-` or `-1` where an option or a regex may stand.
WELL_FORMED_PIECES = [
    ("--level", "0"), ("--level", "1/2"), ("--level", "1"), ("--level", "3/2"),
    ("--alphabet", "ab"), ("--alphabet", ""), ("--basis", "mod"), ("--basis", "gr"),
    ("--json",), ("--witness",), ("--emit-imprint",), ("--no-stats",),
    ("--max-states", "7"), ("--max-states", " 7"), ("--max-antichain", "3"),
]
IRREGULAR_PIECES = [
    ("--level", "5/2"), ("--max-states", "0"), ("--max-states", "x"), ("--max-antichain", "-3"),
    ("--lev", "1"), ("--al", "ab"), ("--js",), ("--max", "3"), ("--no",),
    ("--level=1",), ("--alphabet=ab",), ("--max-states=5",), ("--bogus",), ("-x",),
    ("--level",), ("--alphabet",), ("--max-states",), ("--alphabet", "--json"),
    ("--basis", "-x"), ("-h",), ("--help",),
    ("--",), ("-",), ("-1",),
]
REGEXES = ["a*", "(aa)*", "b", "~(a)", "", "a b", "member"]


@st.composite
def query_lines(draw):
    """A query command's line, well formed or nearly so: --level and
    --alphabet seven times in eight each, an irregular piece or two one
    time in two, a count of regexes that fits three times in four."""
    command = draw(st.sampled_from(list(QUERY_COMMANDS)))
    positionals = QUERY_COMMANDS[command][1]
    pieces = draw(st.lists(st.sampled_from(WELL_FORMED_PIECES), max_size=3))
    for required in (("--level", draw(st.sampled_from(LEVELS))), ("--alphabet", "ab")):
        if draw(st.integers(0, 7)):
            pieces.append(required)
    if draw(st.booleans()):
        pieces += draw(st.lists(st.sampled_from(IRREGULAR_PIECES), min_size=1, max_size=2))
    fits = len(positionals) + (positionals[-1][1] == "+") * draw(st.integers(0, 1))
    count = fits if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    regexes = draw(st.lists(st.sampled_from(REGEXES), min_size=count, max_size=count))
    # The regexes stand together, or each where it falls.
    pieces += [tuple(regexes)] if draw(st.integers(0, 3)) else [(r,) for r in regexes]
    pieces = draw(st.permutations(pieces))
    return [command, *itertools.chain(*pieces)]


@settings(max_examples=400, deadline=None)
@given(query_lines())
def test_a_query_line_parses_as_when_parsed_whole_at_the_top(argv):
    # The scan reads the well-formed lines, argparse the rest; either way
    # the line gives what `parse_args` of the whole line gives.
    assert parsed(cli._parse, argv) == parsed(build_parser().parse_args, argv)


def test_well_formed_lines_parse_without_argparse(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import corpus

    lines = [list(line) for line in list(VALID_LINES)[:4]]
    lines += [q.argv for make in corpus.WORKLOADS.values() for q in make(101)]
    parser = build_parser()
    expected = [parser.parse_args(argv) for argv in lines]

    def no_parser():
        raise AssertionError("argparse was asked to parse a well-formed line")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert [cli._parse(argv) for argv in lines] == expected
