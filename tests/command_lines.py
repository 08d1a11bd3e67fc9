"""Command lines that test argument parsing more than deciding.

`tests/test_cli.py` checks that `modhier.cli.run` answers each of them
as one `parse_args` of the whole line would, and
`tools/same_outputs.py` compares their outputs across revisions. Most
of them are lines that `modhier.cli`'s quick scan of well-formed query
lines must leave to argparse. Plain data, so that a script can import
it without the test dependencies.
"""

QUERY = ("--level", "1", "--alphabet", "ab")

# Help, wherever argparse takes it.
HELP_LINES = [
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "member"),
    ("member", "-h"),
    ("separate", "--help"),
    ("cover", "--help"),
    ("imprint", "--help"),
    ("batch", "-h"),
    ("member", *QUERY, "a*", "--help"),
    ("member", *QUERY, "--help", "--bogus"),
]

# Usage errors, and lines that parse but fail on their input.
MALFORMED_LINES = [
    (),
    ("",),
    ("frobnicate", "a*"),
    ("mem", *QUERY, "a*"),
    ("sep",),
    ("Member", *QUERY, "a*"),
    (*QUERY, "a*"),
    ("--level", "1", "member", "--alphabet", "ab", "a*"),
    ("--no-stats", "member", *QUERY, "a*"),
    ("member",),
    ("member", "--level", "5/2", "--alphabet", "ab", "a*"),
    ("member", "--alphabet", "ab", "a*"),
    ("separate", *QUERY, "a*"),
    ("cover", "--level", "1/2", "--alphabet", "a", "(aa)*"),
    ("member", *QUERY, "a*", "b*"),
    ("member", *QUERY, "a*", "b*", "a"),
    ("member", *QUERY, "a*", "--bogus"),
    ("member", *QUERY, "a*", "--bogus", "x", "-y"),
    ("member", *QUERY, "a*", "-x"),
    ("member", *QUERY, "--", "a*", "b*"),
    ("member", *QUERY, "--", "-a"),
    ("member", *QUERY, "a*", "--max-states", "0"),
    ("member", *QUERY, "a*", "--max-antichain", "-3"),
    ("member", *QUERY, "a*", "--max-states", "x"),
    ("member", *QUERY, "a*", "--max-states"),
    ("member", "--lev", "1", "--alphabet", "ab", "a*", "--no-stats"),
    ("member", *QUERY, "--max-states", "1", "(a|b)*b(a|b)*"),
    ("separate", *QUERY, "--max-states", "2", "(a|b)*abba", "a*("),
    ("member", *QUERY, "a*("),
    ("member", "--level", "1", "--alphabet", "a", "b*"),
    ("member", "--level", "1", "--alphabet", "aa", "a*"),
    ("imprint", "--level", "0", "--alphabet", "a", "(aa)*"),
    ("member", *QUERY, "a*", "--basis", "gr"),
    ("batch",),
    ("batch", "first.txt", "second.txt"),
    ("batch", "no-such-queries.txt"),
]

# Lines that argparse reads otherwise than a token-by-token reading
# would suggest. Positionals split by an option: argparse rejects the
# variadic ones and accepts the fixed ones. `-` and `-1` are
# positionals, not options. int() takes " 7". An option's value may not
# start with `-`. A repeated option keeps its last value.
IRREGULAR_LINES = [
    ("cover", *QUERY, "(a|b)*", "a*", "--json", "b*"),
    ("imprint", *QUERY, "a*", "--json", "b*"),
    ("separate", "a*", "--json", "b*", *QUERY),
    ("member", *QUERY, "-"),
    ("member", *QUERY, "-1"),
    ("member", *QUERY, "a*", "--max-states", " 7"),
    ("member", "--level", "1", "--alphabet", "--json", "a*"),
    ("member", "--level", "0", *QUERY, "a*"),
]
