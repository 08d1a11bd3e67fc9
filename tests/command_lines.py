"""Command lines, each with what `modhier` answers to it.

`ANSWERS` maps an argument list to the exit code, stdout and stderr
that `modhier.cli.run` gives it, and `tests/test_cli.py` runs every
row. `BATCH_ANSWERS` does the same for `batch`: it maps a file's text,
or its bytes, to what `batch` answers on that file, so comments, blank
lines, failing lines and unreadable files are stated once.
`HELP_LINES`, `MALFORMED_LINES` and `IRREGULAR_LINES` test argument
parsing more than deciding. Each maps a line to its exit code, and
`tests/test_cli.py` checks that `run` exits so and answers as one
`parse_args` of the whole line would. Most of them are lines
that `modhier.cli`'s quick scan of well-formed query lines must leave
to argparse. A line may stand in a list and in the table: the list
says how argparse reads it, the table what it prints.
`tools/same_outputs.py` compares the outputs of all of them across
revisions. Plain data, so that a script can import it without the
test dependencies.
"""

QUERY = ("--level", "1", "--alphabet", "ab")
# The widest alphabet (`e` is regex syntax), the alternation of all its
# letters and that of all but `a`.
WIDE = "abcdfghijklmnopqrstuvwxyz"
ANY = "(" + "|".join(WIDE) + ")"
NOT_A = "(" + "|".join(WIDE[1:]) + ")"


class Head(str):
    """A stream given by how it starts: argparse wraps its usage and help
    text to the terminal's width, so a row gives only their first words."""


class Tail(str):
    """A stream given by how it ends: the error line that argparse prints
    after its usage text."""


# Argument list: (exit code, stdout, stderr).
ANSWERS = {
    # Decision commands, text output. A negative answer exits 0 too.
    ("separate", "--level", "1/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*", "--no-stats"):
        (0, "RESULT: not-separable\n", ""),
    ("member", "--level", "1", "--alphabet", "ab", "a*", "--no-stats"): (0, "RESULT: member\n", ""),
    ("member", "--level", "1/2", "--alphabet", "ab", "a*", "--no-stats"):
        (0, "RESULT: not-member\n", ""),
    # The 10-state DFA has a 20-element monoid, which the monoid budget
    # allows: `--max-states` bounds automata, not the monoid.
    ("member", "--level", "1/2", "--alphabet", "ab", "--max-states", "10", "(a|b)*abba(a|b)*",
     "--no-stats"): (0, "RESULT: not-member\n", ""),
    # No witness unless asked for.
    ("separate", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*", "--no-stats"):
        (0, "RESULT: separable\n", ""),
    # Witnesses.
    ("separate", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*", "--witness", "--no-stats"):
        (0, "RESULT: separable\nWITNESS: d=2\n", ""),
    ("separate", "--level", "1/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*", "--witness",
     "--no-stats"):
        (0, 'RESULT: not-separable\nWITNESS: blocking element 0 word "" image {0,1}\n', ""),
    ("separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*", "--witness", "--no-stats"):
        (0, 'RESULT: separable\nWITNESS: separator d=2 markers [""]\n', ""),
    # The unpointed blocking witness of level 1 names no element; level
    # 3/2 names the least one.
    ("separate", "--level", "1", "--alphabet", "ab", "a", "a", "--witness", "--no-stats"):
        (0, "RESULT: not-separable\nWITNESS: blocking image {1}\n", ""),
    ("separate", "--level", "3/2", "--alphabet", "ab", "a", "a", "--witness", "--no-stats"):
        (0, 'RESULT: not-separable\nWITNESS: blocking element 1 word "a" image {1}\n', ""),
    # The query fits 10 states, but a candidate separator the search
    # compiles before its first hit does not: the search then ends with
    # no witness, and the answer stands. With 13 states it finds one.
    ("separate", "--level", "1/2", "--alphabet", "ab", "(a)*(a|b)b(a|b)*", "((a|b)*(a|b)(a|b)*&b)",
     "--witness", "--max-states", "10", "--no-stats"): (0, "RESULT: separable\n", ""),
    ("separate", "--level", "1/2", "--alphabet", "ab", "(a)*(a|b)b(a|b)*", "((a|b)*(a|b)(a|b)*&b)",
     "--witness", "--max-states", "13", "--no-stats"):
        (0, 'RESULT: separable\nWITNESS: separator d=1 markers ["ab", "bb"]\n', ""),
    # Over 25 letters. No word of the second language has 4 letters or
    # less, so the search has no probe word, and learns so without
    # building the 25^4 words of length 4.
    ("separate", "--level", "1/2", "--alphabet", WIDE, "--witness", "a", NOT_A * 6 + "*", "--no-stats"):
        (0, 'RESULT: separable\nWITNESS: separator d=1 markers ["a"]\n', ""),
    # 625 two-letter markers: the search stops after `--max-antichain`
    # candidates (50,000 by default) with no witness, not after 4 x 195,626.
    ("separate", "--level", "1/2", "--alphabet", WIDE, "--witness", ANY * 2 + "(" + ANY * 5 + ")*",
     "(" + ANY * 5 + ")*", "--no-stats"): (0, "RESULT: separable\n", ""),
    # Imprints of unary parity at each level above 0.
    ("imprint", "--level", "1/2", "--alphabet", "a", "(aa)*", "--no-stats"):
        (0, 'MONOID: 2 elements\n  0 = ""\n  1 = "a"\nIMPRINT: (0,{0}) (1,{1})\n', ""),
    ("imprint", "--level", "1", "--alphabet", "a", "(aa)*", "--no-stats"):
        (0, 'MONOID: 2 elements\n  0 = ""\n  1 = "a"\nIMPRINT: {0} {1}\n', ""),
    ("imprint", "--level", "3/2", "--alphabet", "a", "(aa)*", "--no-stats"):
        (0, 'MONOID: 2 elements\n  0 = ""\n  1 = "a"\nIMPRINT: (0,{0}) (1,{1})\n', ""),
    # `--emit-imprint` attaches the imprint to a decision.
    ("separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*", "--emit-imprint", "--no-stats"):
        (0, 'RESULT: separable\nMONOID: 2 elements\n  0 = ""\n  1 = "a"\nIMPRINT: (0,{0}) (1,{1})\n', ""),
    # JSON. With `--no-stats` a query prints the same bytes on every run.
    ("imprint", "--level", "1/2", "--alphabet", "a", "(aa)*", "--json", "--no-stats"):
        (0, '{"basis": "mod", "command": "imprint", "imprint": {"maximal": [[0, [0]], [1, [1]]], '
            '"monoid": ["", "a"], "pointed": true}, "level": "1/2"}\n', ""),
    ("imprint", "--level", "1", "--alphabet", "a", "(aa)*", "--json", "--no-stats"):
        (0, '{"basis": "mod", "command": "imprint", "imprint": {"maximal": [[0], [1]], '
            '"monoid": ["", "a"], "pointed": false}, "level": "1"}\n', ""),
    ("member", "--level", "1/2", "--alphabet", "ab", "a*", "--json", "--no-stats"):
        (0, '{"answer": false, "basis": "mod", "command": "member", "level": "1/2"}\n', ""),
    ("member", "--level", "1", "--alphabet", "ab", "a*", "--json", "--no-stats"):
        (0, '{"answer": true, "basis": "mod", "command": "member", "level": "1"}\n', ""),
    ("separate", "--level", "1/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*", "--witness", "--json",
     "--no-stats"):
        (0, '{"answer": false, "basis": "mod", "command": "separate", "level": "1/2", '
            '"witness": {"blocking": {"element": 0, "image": [0, 1], "word": ""}}}\n', ""),
    ("separate", "--level", "1/2", "--alphabet", "a", "(aa)*", "a(aa)*", "--witness", "--json",
     "--no-stats"):
        (0, '{"answer": true, "basis": "mod", "command": "separate", "level": "1/2", '
            '"witness": {"separator": {"markers": [""], "modulus": 2}}}\n', ""),
    ("separate", "--level", "1", "--alphabet", "ab", "a", "a", "--witness", "--json", "--no-stats"):
        (0, '{"answer": false, "basis": "mod", "command": "separate", "level": "1", '
            '"witness": {"blocking": {"image": [1]}}}\n', ""),
    # Usage errors exit 2, with argparse's usage text on the error stream.
    (): (2, "", Tail("modhier: error: the following arguments are required: command\n")),
    ("separate", "a*", "b*"):
        (2, "", Tail("modhier separate: error: the following arguments are required: "
                     "--level, --alphabet\n")),
    ("separate", "--level", "5/2", "--alphabet", "ab", "a*", "b*"):
        (2, "", Tail("modhier separate: error: argument --level: invalid choice: '5/2' "
                     "(choose from '0', '1/2', '1', '3/2')\n")),
    ("member", *QUERY, "a*", "--max-states", "0"):
        (2, "", Tail("modhier member: error: argument --max-states: must be at least 1, got 0\n")),
    ("member", *QUERY, "a*", "--max-states", "-3"):
        (2, "", Tail("modhier member: error: argument --max-states: must be at least 1, got -3\n")),
    ("member", *QUERY, "a*", "--max-antichain", "0"):
        (2, "", Tail("modhier member: error: argument --max-antichain: must be at least 1, got 0\n")),
    ("member", *QUERY, "a*", "--max-antichain", "-3"):
        (2, "", Tail("modhier member: error: argument --max-antichain: must be at least 1, "
                     "got -3\n")),
    # Help goes to the out stream.
    ("member", "--help"): (0, Head("usage: modhier member"), ""),
    # Input errors exit 2.
    ("member", *QUERY, "a*("): (2, "", "error: unexpected end of input (at position 3)\n"),
    ("member", "--level", "1", "--alphabet", "a", "b*"):
        (2, "", "error: letter 'b' outside alphabet (at position 0)\n"),
    ("member", "--level", "1", "--alphabet", "aa", "a*"):
        (2, "", "error: duplicate alphabet letter 'a'\n"),
    ("batch", "/nonexistent/queries.txt"):
        (2, "", "error: [Errno 2] No such file or directory: '/nonexistent/queries.txt'\n"),
    # Regexes are parsed and compiled in argument order: the first regex
    # trips the state budget before the second is parsed.
    ("separate", "--level", "1/2", "--alphabet", "ab", "--max-states", "2", "(a|b)*abba", "a*("):
        (3, "", "error: state budget exceeded (limit 2)\n"),
    ("separate", "--level", "1/2", "--alphabet", "ab", "--max-states", "2", "a*(", "(a|b)*abba"):
        (2, "", "error: unexpected end of input (at position 3)\n"),
    # A budget that runs out exits 3 and names itself.
    ("member", *QUERY, "(a|b)*b(a|b)*", "--max-states", "1"):
        (3, "", "error: state budget exceeded (limit 1)\n"),
    ("separate", "--level", "3/2", "--alphabet", "ab", "a*", "(a|b)*b(a|b)*", "--max-antichain", "1"):
        (3, "", "error: antichain budget exceeded (limit 1)\n"),
    ("separate", "--level", "3/2", "--alphabet", "ab", "a*", "b*", "--max-states", "1"):
        (3, "", "error: state budget exceeded (limit 1)\n"),
    # An unsupported basis or level exits 4.
    ("member", *QUERY, "a*", "--basis", "gr"):
        (4, "", "error: basis 'gr' is reserved but not implemented\n"),
    ("member", *QUERY, "a*", "--basis", "amod"):
        (4, "", "error: basis 'amod' is reserved but not implemented\n"),
    ("member", *QUERY, "a*", "--basis", "xyz"): (4, "", "error: unknown basis 'xyz'\n"),
    ("cover", "--level", "0", "--alphabet", "a", "(aa)*", "a(aa)*"):
        (4, "", "error: covering is not supported at level 0\n"),
    ("imprint", "--level", "0", "--alphabet", "a", "(aa)*"):
        (4, "", "error: imprints are not defined at level 0\n"),
    ("separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa)*", "a(aa)*"):
        (4, "", "error: imprints are not defined at level 0\n"),
    # Under `--emit-imprint` at level 0, input errors and budgets come
    # before the refusal, and `cover` keeps its own refusal.
    ("separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa", "a(aa)*"):
        (2, "", "error: unbalanced parenthesis (at position 3)\n"),
    ("separate", "--level", "0", "--alphabet", "a", "--emit-imprint", "--max-states", "1", "(aaa)*",
     "a(aa)*"): (3, "", "error: state budget exceeded (limit 1)\n"),
    ("cover", "--level", "0", "--alphabet", "a", "--emit-imprint", "(aa)*", "a(aa)*"):
        (4, "", "error: covering is not supported at level 0\n"),
}

# Text or bytes of a batch file named `queries.txt`: (exit code, stdout,
# stderr) of `batch queries.txt` run beside it.
BATCH_ANSWERS = {
    # Each line but comments and blank ones is echoed, then answered.
    '# leading comment\n\nmember --level 1 --alphabet ab "a*" --no-stats\n'
    'separate --level 0 --alphabet a "(aa)*" "a(aa)*" --witness --no-stats\n':
        (0, 'QUERY: member --level 1 --alphabet ab "a*" --no-stats\nRESULT: member\n'
            'QUERY: separate --level 0 --alphabet a "(aa)*" "a(aa)*" --witness --no-stats\n'
            "RESULT: separable\nWITNESS: d=2\n", ""),
    # A line's usage error goes to the error stream `run` writes to.
    'member --level 1 --alphabet ab "a*" --max-states 0\n':
        (2, 'QUERY: member --level 1 --alphabet ab "a*" --max-states 0\n',
         Tail("modhier member: error: argument --max-states: must be at least 1, got 0\n")),
    # A line that fails, on its regex or on its quoting, fails alone: the
    # next line still runs, and the file exits with the first failure.
    'member --level 1 --alphabet ab "a*(" --no-stats\nmember --level 1 --alphabet ab "a*" --no-stats\n':
        (2, 'QUERY: member --level 1 --alphabet ab "a*(" --no-stats\n'
            'QUERY: member --level 1 --alphabet ab "a*" --no-stats\nRESULT: member\n',
         "error: unexpected end of input (at position 3)\n"),
    'member --level 1 --alphabet ab "a*\nmember --level 1 --alphabet ab "a*" --no-stats\n':
        (2, 'QUERY: member --level 1 --alphabet ab "a*\n'
            'QUERY: member --level 1 --alphabet ab "a*" --no-stats\nRESULT: member\n',
         "error: No closing quotation\n"),
    "batch somewhere.txt\n":
        (2, "QUERY: batch somewhere.txt\n", "error: batch files cannot nest batch commands\n"),
    # A file that is not UTF-8 runs no line.
    b"\xff\xfe member\n":
        (2, "", "error: queries.txt: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte\n"),
}

# Help, wherever argparse takes it.
HELP_LINES = {
    ("-h",): 0,
    ("--help",): 0,
    ("--he",): 0,
    ("-h", "member"): 0,
    ("member", "-h"): 0,
    ("separate", "--help"): 0,
    ("cover", "--help"): 0,
    ("imprint", "--help"): 0,
    ("batch", "-h"): 0,
    ("member", *QUERY, "a*", "--help"): 0,
    ("member", *QUERY, "--help", "--bogus"): 0,
}

# Usage errors, and lines that parse but fail on their input.
MALFORMED_LINES = {
    (): 2,
    ("",): 2,
    ("frobnicate", "a*"): 2,
    ("mem", *QUERY, "a*"): 2,
    ("sep",): 2,
    ("Member", *QUERY, "a*"): 2,
    (*QUERY, "a*"): 2,
    ("--level", "1", "member", "--alphabet", "ab", "a*"): 2,
    ("--no-stats", "member", *QUERY, "a*"): 2,
    ("member",): 2,
    ("member", "--level", "5/2", "--alphabet", "ab", "a*"): 2,
    ("member", "--alphabet", "ab", "a*"): 2,
    ("separate", *QUERY, "a*"): 2,
    ("cover", "--level", "1/2", "--alphabet", "a", "(aa)*"): 2,
    ("member", *QUERY, "a*", "b*"): 2,
    ("member", *QUERY, "a*", "b*", "a"): 2,
    ("member", *QUERY, "a*", "--bogus"): 2,
    ("member", *QUERY, "a*", "--bogus", "x", "-y"): 2,
    ("member", *QUERY, "a*", "-x"): 2,
    ("member", *QUERY, "--", "a*", "b*"): 2,
    ("member", *QUERY, "--", "-a"): 2,
    ("member", *QUERY, "a*", "--max-states", "0"): 2,
    ("member", *QUERY, "a*", "--max-antichain", "-3"): 2,
    ("member", *QUERY, "a*", "--max-states", "x"): 2,
    ("member", *QUERY, "a*", "--max-states"): 2,
    ("member", *QUERY, "--max-states", "1", "(a|b)*b(a|b)*"): 3,
    ("separate", *QUERY, "--max-states", "2", "(a|b)*abba", "a*("): 3,
    ("member", *QUERY, "a*("): 2,
    ("member", "--level", "1", "--alphabet", "a", "b*"): 2,
    ("member", "--level", "1", "--alphabet", "aa", "a*"): 2,
    ("imprint", "--level", "0", "--alphabet", "a", "(aa)*"): 4,
    ("member", *QUERY, "a*", "--basis", "gr"): 4,
    ("batch",): 2,
    ("batch", "first.txt", "second.txt"): 2,
    ("batch", "no-such-queries.txt"): 2,
}

# Lines that argparse reads otherwise than a token-by-token reading
# would suggest. Positionals split by an option: argparse rejects the
# variadic ones and accepts the fixed ones. `-` and `-1` are
# positionals, not options. int() takes " 7". An option's value may not
# start with `-`. A repeated option keeps its last value. An option may
# be abbreviated.
IRREGULAR_LINES = {
    ("cover", *QUERY, "(a|b)*", "a*", "--json", "b*"): 2,
    ("imprint", *QUERY, "a*", "--json", "b*"): 2,
    ("separate", "a*", "--json", "b*", *QUERY): 0,
    ("member", *QUERY, "-"): 2,
    ("member", *QUERY, "-1"): 2,
    ("member", *QUERY, "a*", "--max-states", " 7"): 0,
    ("member", "--level", "1", "--alphabet", "--json", "a*"): 2,
    ("member", "--level", "0", *QUERY, "a*"): 0,
    ("member", "--lev", "1", "--alphabet", "ab", "a*", "--no-stats"): 0,
}
