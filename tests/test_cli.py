"""End-to-end command-line tests driving run() with captured streams."""

import itertools
import json
import re
import shlex
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhier import cli, decide, engines
from modhier.cli import QUERY_COMMANDS, build_parser, run
from modhier.decide import LEVELS
from modhier.lang import compile_regex

from command_lines import HELP_LINES, IRREGULAR_LINES, MALFORMED_LINES
from gen import count_calls

BENCH = Path(__file__).resolve().parent.parent / "bench"


def invoke(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def lines(text):
    return text.splitlines()


# ---------------------------------------------------------------------------
# Decision commands, text output


def test_separate_chain_not_separable():
    code, out, err = invoke(
        "separate", "--level", "1/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*", "--no-stats"
    )
    assert code == 0
    assert lines(out) == ["RESULT: not-separable"]
    assert err == ""


def test_member_level_one():
    code, out, _ = invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--no-stats")
    assert code == 0
    assert lines(out) == ["RESULT: member"]


def test_member_negative_polarity_still_exits_zero():
    code, out, _ = invoke("member", "--level", "1/2", "--alphabet", "ab", "a*", "--no-stats")
    assert code == 0
    assert lines(out) == ["RESULT: not-member"]


def test_level_zero_separation_with_witness():
    code, out, _ = invoke(
        "separate", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*",
        "--witness", "--no-stats",
    )
    assert code == 0
    assert lines(out) == ["RESULT: separable", "WITNESS: d=2"]


def test_blocking_witness_text():
    code, out, _ = invoke(
        "separate", "--level", "1/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*",
        "--witness", "--no-stats",
    )
    assert code == 0
    assert lines(out) == [
        "RESULT: not-separable",
        'WITNESS: blocking element 0 word "" image {0,1}',
    ]


def test_separator_witness_text():
    code, out, _ = invoke(
        "separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*",
        "--witness", "--no-stats",
    )
    assert code == 0
    assert lines(out) == ["RESULT: separable", 'WITNESS: separator d=2 markers [""]']


@pytest.mark.parametrize(
    "states, witness",
    [(10, []), (13, ['WITNESS: separator d=1 markers ["ab", "bb"]'])],
)
def test_separator_search_past_the_state_budget_gives_no_witness(states, witness):
    # The query fits 10 states, but a candidate separator the search
    # compiles before its first hit does not: the search then ends with
    # no witness, and the answer stands.
    code, out, err = invoke(
        "separate", "--level", "1/2", "--alphabet", "ab", "(a)*(a|b)b(a|b)*",
        "((a|b)*(a|b)(a|b)*&b)", "--witness", "--max-states", str(states), "--no-stats",
    )
    assert (code, lines(out), err) == (0, ["RESULT: separable"] + witness, "")


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


def test_imprint_level_half_unary_parity():
    code, out, _ = invoke("imprint", "--level", "1/2", "--alphabet", "a", "(aa)*", "--no-stats")
    assert code == 0
    assert lines(out) == [
        "MONOID: 2 elements",
        '  0 = ""',
        '  1 = "a"',
        "IMPRINT: (0,{0}) (1,{1})",
    ]


def test_imprint_level_one_unary_parity():
    code, out, _ = invoke("imprint", "--level", "1", "--alphabet", "a", "(aa)*", "--no-stats")
    assert code == 0
    assert lines(out)[-1] == "IMPRINT: {0} {1}"


def test_imprint_level_three_halves_unary_parity():
    code, out, _ = invoke("imprint", "--level", "3/2", "--alphabet", "a", "(aa)*", "--no-stats")
    assert code == 0
    assert lines(out)[-1] == "IMPRINT: (0,{0}) (1,{1})"


def test_emit_imprint_attaches_to_decision():
    code, out, _ = invoke(
        "separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*",
        "--emit-imprint", "--no-stats",
    )
    assert code == 0
    assert lines(out)[0] == "RESULT: separable"
    assert lines(out)[-1] == "IMPRINT: (0,{0}) (1,{1})"


ENGINES_BY_LEVEL = {
    "1/2": ["pol_imprint"],
    "1": ["bpol_iopti", "bpol_opti"],
    "3/2": ["pbpol_iopti", "pbpol_pointed_imprint"],
}


def count_engine_runs(monkeypatch) -> Counter:
    """Count calls of every engine, wherever a modhier module binds it."""
    calls = Counter()
    names = [name for group in ENGINES_BY_LEVEL.values() for name in group]
    modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("modhier")]
    for name in names:
        original = getattr(engines, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("level", sorted(ENGINES_BY_LEVEL))
def test_emit_imprint_runs_each_engine_once(monkeypatch, level):
    calls = count_engine_runs(monkeypatch)
    code, out, _ = invoke(
        "separate", "--level", level, "--alphabet", "ab", "a*", "(a|b)*b(a|b)*",
        "--emit-imprint", "--no-stats",
    )
    assert code == 0
    assert lines(out)[-1].startswith("IMPRINT: ")
    assert calls == Counter({name: 1 for name in ENGINES_BY_LEVEL[level]})


def test_emit_imprint_at_level_zero_exits_four():
    code, out, err = invoke(
        "separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa)*", "a(aa)*"
    )
    assert code == 4
    assert out == ""
    assert "imprints are not defined at level 0" in err


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


def test_emit_imprint_at_level_zero_reports_input_errors_first():
    code, _, err = invoke(
        "separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa", "a(aa)*"
    )
    assert code == 2
    assert "imprints" not in err
    code, _, err = invoke(
        "separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "--max-states", "1",
        "(aaa)*", "a(aa)*",
    )
    assert code == 3
    assert "state budget exceeded (limit 1)" in err


def test_cover_at_level_zero_keeps_its_own_refusal():
    code, out, err = invoke(
        "cover", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa)*", "a(aa)*"
    )
    assert (code, out) == (4, "")
    assert err == "error: covering is not supported at level 0\n"


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


def test_json_imprint_round_trip():
    code, out, _ = invoke(
        "imprint", "--level", "1/2", "--alphabet", "a", "(aa)*", "--json", "--no-stats"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["imprint"] == {
        "pointed": True,
        "monoid": ["", "a"],
        "maximal": [[0, [0]], [1, [1]]],
    }
    assert "stats" not in payload


def test_json_negative_answer():
    code, out, _ = invoke(
        "member", "--level", "1/2", "--alphabet", "ab", "a*", "--json", "--no-stats"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is False
    assert "witness" not in payload


def test_no_stats_output_is_reproducible():
    first = invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--json", "--no-stats")
    second = invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--json", "--no-stats")
    assert first == second


# ---------------------------------------------------------------------------
# Exit codes


def test_argparse_errors_exit_two():
    assert invoke("separate", "a*", "b*")[0] == 2
    assert invoke("separate", "--level", "5/2", "--alphabet", "ab", "a*", "b*")[0] == 2
    assert invoke()[0] == 2


def test_regex_syntax_error_exits_two():
    code, _, err = invoke("member", "--level", "1", "--alphabet", "ab", "a*(")
    assert code == 2
    assert "error:" in err


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


def test_letter_outside_alphabet_exits_two():
    code, _, err = invoke("member", "--level", "1", "--alphabet", "a", "b*")
    assert code == 2
    assert "error:" in err


def test_duplicate_alphabet_exits_two():
    assert invoke("member", "--level", "1", "--alphabet", "aa", "a*")[0] == 2


@pytest.mark.parametrize("argv", [
    ["member", "--level", "1", "--alphabet", "ab", "(a|b)*b(a|b)*", "--max-states", "1"],
    ["separate", "--level", "3/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*",
     "--max-antichain", "1"],
    ["separate", "--level", "3/2", "--alphabet", "ab", "a*", "b*", "--max-states", "1"],
], ids=["member-states", "separate-antichain", "separate-states"])
def test_budget_overflow_exits_three(argv):
    code, out, err = invoke(*argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("flag", ["--max-states", "--max-antichain"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_flags_below_one_are_usage_errors(flag, value, capsys):
    code, out, err = invoke("member", "--level", "1", "--alphabet", "ab", "a*", flag, value)
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be at least 1, got {value}" in err
    assert capsys.readouterr() == ("", "")


def test_batch_usage_errors_reach_the_err_stream(tmp_path, capsys):
    script = tmp_path / "queries.txt"
    script.write_text('member --level 1 --alphabet ab "a*" --max-states 0\n')
    out, err = StringIO(), StringIO()
    assert run(["batch", str(script)], out=out, err=err) == 2
    assert "must be at least 1, got 0" in err.getvalue()
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_out_stream(capsys):
    code, out, err = invoke("member", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: modhier member")
    assert capsys.readouterr() == ("", "")


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


def test_max_states_bounds_automata_not_the_monoid():
    # The 10-state DFA has a 20-element monoid, which the monoid budget allows.
    code, out, err = invoke(
        "member", "--level", "1/2", "--alphabet", "ab", "--max-states", "10",
        "(a|b)*abba(a|b)*", "--no-stats",
    )
    assert (code, lines(out), err) == (0, ["RESULT: not-member"], "")


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("no order-minimal block value below the given bound")

    monkeypatch.setattr("modhier.cli.member", broken)
    with pytest.raises(ValueError, match="order-minimal"):
        invoke("member", "--level", "1", "--alphabet", "ab", "a*")


def test_reserved_basis_exits_four():
    for name in ("gr", "amod", "xyz"):
        code, _, err = invoke(
            "member", "--level", "1", "--alphabet", "ab", "a*", "--basis", name
        )
        assert code == 4, name
        assert "error:" in err


def test_cover_level_zero_exits_four():
    assert invoke("cover", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*")[0] == 4


def test_imprint_level_zero_exits_four():
    assert invoke("imprint", "--level", "0", "--alphabet", "a", "(aa)*")[0] == 4


def test_regexes_are_parsed_and_compiled_in_argument_order():
    # The first regex trips the state budget before the second is parsed.
    head = ("separate", "--level", "1/2", "--alphabet", "ab", "--max-states", "2")
    assert invoke(*head, "(a|b)*abba", "a*(") == (3, "", "error: state budget exceeded (limit 2)\n")
    assert invoke(*head, "a*(", "(a|b)*abba") == (
        2, "", "error: unexpected end of input (at position 3)\n"
    )


@pytest.fixture
def compilations(monkeypatch):
    """The programs `cli` compiles, in order."""
    programs = []

    def counting(program, alphabet, budget):
        programs.append(program)
        return compile_regex(program, alphabet, budget)

    monkeypatch.setattr(cli, "compile_regex", counting)
    return programs


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
def test_a_language_and_its_complements_compile_once(compilations, command, level, shared, apart):
    head = (command, "--level", level, "--alphabet", "ab", "--witness", "--no-stats")
    answer = invoke(*head, *shared)
    assert len(compilations) == 1
    assert invoke(*head, *apart) == answer
    assert len(compilations) == 1 + len(apart)
    assert answer[0] == 0


# ---------------------------------------------------------------------------
# Batch driver


@pytest.fixture
def counted_parsers(monkeypatch):
    """Count `build_parser` calls from a process that has built no parser yet."""
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def test_one_parser_serves_every_run_and_batch_line(counted_parsers, tmp_path):
    script = tmp_path / "queries.txt"
    script.write_text(
        'member --level 1 --alphabet ab "a*" --no-stats\n'
        'separate --level 0 --alphabet a "(aa)*" "a(aa)*" --no-stats\n'
        'member --level 1/2 --alphabet ab "a*" --no-stats\n'
    )
    assert counted_parsers == []
    assert invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--no-stats")[0] == 0
    assert invoke("separate", "--level", "1/2", "--alphabet", "ab", "a*", "b*")[0] == 0
    code, out, _ = invoke("batch", str(script))
    assert (code, out.count("RESULT: ")) == (0, 3)
    assert counted_parsers == [1]


def test_shared_parser_still_rejects_bad_arguments(counted_parsers):
    assert invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--no-stats")[0] == 0
    assert invoke("member", "--level", "5/2", "--alphabet", "ab", "a*")[0] == 2
    assert invoke("member", "--alphabet", "ab", "a*")[0] == 2
    code, out, _ = invoke("member", "--level", "1", "--alphabet", "ab", "a*", "--no-stats")
    assert (code, lines(out)) == (0, ["RESULT: member"])
    assert counted_parsers == [1]


def test_batch_runs_each_line(tmp_path):
    script = tmp_path / "queries.txt"
    script.write_text(
        "# leading comment\n"
        "\n"
        'member --level 1 --alphabet ab "a*" --no-stats\n'
        'separate --level 0 --alphabet a "(aa)*" "a(aa)*" --witness --no-stats\n'
    )
    code, out, err = invoke("batch", str(script))
    assert code == 0
    assert lines(out) == [
        'QUERY: member --level 1 --alphabet ab "a*" --no-stats',
        "RESULT: member",
        'QUERY: separate --level 0 --alphabet a "(aa)*" "a(aa)*" --witness --no-stats',
        "RESULT: separable",
        "WITNESS: d=2",
    ]
    assert err == ""


def test_batch_continues_after_errors(tmp_path):
    # A bad regex, and a line shlex cannot split, are each reported on
    # their own; the next line still runs.
    script = tmp_path / "queries.txt"
    for bad, message in [
        ('member --level 1 --alphabet ab "a*(" --no-stats', "error: "),
        ('member --level 1 --alphabet ab "a*', "error: No closing quotation\n"),
    ]:
        script.write_text(bad + '\nmember --level 1 --alphabet ab "a*" --no-stats\n')
        code, out, err = invoke("batch", str(script))
        assert code == 2
        assert "RESULT: member" in out
        assert err.startswith(message)


def test_batch_rejects_nesting(tmp_path):
    script = tmp_path / "queries.txt"
    script.write_text("batch somewhere.txt\n")
    code, _, err = invoke("batch", str(script))
    assert code == 2
    assert "nest" in err


def test_batch_missing_file_exits_two():
    assert invoke("batch", "/nonexistent/queries.txt")[0] == 2


def test_batch_unreadable_lines_exit_two(tmp_path):
    unquoted = tmp_path / "unquoted.txt"
    unquoted.write_text('member --level 1 --alphabet ab "a*\n')
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe member\n")
    for script in (unquoted, binary):
        code, _, err = invoke("batch", str(script))
        assert code == 2, script
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# Parser wiring


def test_parser_knows_all_commands():
    parser = build_parser()
    args = parser.parse_args(
        ["separate", "--level", "1/2", "--alphabet", "ab", "x", "y"]
    )
    assert args.command == "separate"
    assert args.basis == "mod"
    assert not args.json


# A valid query of each command, and a batch file of one good and one bad line.
BATCH_FILE = "<batch file>"
VALID_LINES = [
    ("member", "--level", "1", "--alphabet", "ab", "a*"),
    ("separate", "--level", "0", "--alphabet", "a", "(aa)*", "~((aa)*)", "--witness"),
    ("cover", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*", "--json"),
    ("imprint", "--level", "3/2", "--alphabet", "a", "(aa)*", "--no-stats"),
    ("member", "--level=1/2", "--alphabet=ab", "--no-stats", "--", "a*"),
    ("batch", BATCH_FILE),
]
MS = re.compile(r'(ms=|"ms": )[0-9.e+-]+')


@pytest.mark.parametrize(
    "argv",
    VALID_LINES + HELP_LINES + MALFORMED_LINES + IRREGULAR_LINES,
    ids=lambda argv: shlex.join(argv) or "no arguments",
)
def test_each_line_runs_as_when_parsed_whole_at_the_top(argv, monkeypatch, tmp_path):
    # `run` hands a line to its command's parser; the reference parses the
    # whole line with the top-level parser, as `parse_args` does.
    script = tmp_path / "queries.txt"
    script.write_text('member --level 1 --alphabet ab "a*"\nmember --level 1 --alphabet ab a* --bogus\n')
    argv = [str(script) if arg == BATCH_FILE else arg for arg in argv]

    def masked():
        code, out, err = invoke(*argv)
        return code, MS.sub(r"\1#", out), err

    once = masked()
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

    lines = [list(line) for line in VALID_LINES[:4]]
    lines += [q.argv for make in corpus.WORKLOADS.values() for q in make(101)]
    parser = build_parser()
    expected = [parser.parse_args(argv) for argv in lines]

    def no_parser():
        raise AssertionError("argparse was asked to parse a well-formed line")

    monkeypatch.setattr(cli, "_parser", no_parser)
    assert [cli._parse(argv) for argv in lines] == expected
