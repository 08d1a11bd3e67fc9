"""Seeded query corpora for the three workloads.

A corpus is a list of `Query` values: an argument vector for
`modhier.cli.run` plus what the checker needs to judge the answer. The
same workload name and seed always give the same list. Random languages
are drawn from a small regex grammar and kept only when the benchmark's
own automata (`langs`) give their product a transition monoid inside
the workload's size range, which keeps the per-query cost in a known
band whatever the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import langs

# Wall-clock deadline per query, in seconds. No answered query of any
# workload needs more than 15 s of CPU time today; the repro below, which
# never returns, is stopped after REPRO_DEADLINE.
DEADLINE = 90.0
REPRO_DEADLINE = 5.0

README_EXAMPLES = [
    # (command, level, alphabet, regexes, flags, exact output) from the README.
    ("separate", "1/2", "ab", ("a*", "(a|b)*b(a|b)*"), (), "RESULT: not-separable\n"),
    ("member", "1", "ab", ("a*",), (), "RESULT: member\n"),
    ("separate", "0", "a", ("(aa)*", "a(aa)*"), ("--witness",), "RESULT: separable\nWITNESS: d=2\n"),
    ("imprint", "1/2", "a", ("(aa)*",), (),
     'MONOID: 2 elements\n  0 = ""\n  1 = "a"\nIMPRINT: (0,{0}) (1,{1})\n'),
] + [
    ("separate", level, "ab", ("a*", "(a|b)*b(a|b)*"), (), f"RESULT: {word}\n")
    for level, word in (("0", "not-separable"), ("1", "separable"), ("3/2", "separable"))
]

# Level-1/2 queries with --witness, asked on every seed: (command, level,
# alphabet, regexes, answer known by construction). A positive answer starts
# refcheck's bounded separator search. On the level-0 language of the first
# query it compiles every candidate before one verifies, about 0.2 s on two
# letters (about 1 s on three); on the second it stops at the first candidate.
WITNESS_QUERIES = [
    ("member", "1/2", "ab", ("((a|b)(a|b)(a|b))*|(a|b)(a|b)((a|b)(a|b)(a|b))*",), True),
    ("separate", "1/2", "ab", ("(a|b)*a(a|b)*", "b*"), True),
    ("separate", "1/2", "ab", ("a*", "(a|b)*b(a|b)*"), False),
]

# The ROADMAP's level-1 repro: add_closure in engines.admissible_totals has
# no budget, so this query never returns. It is the one operation that
# fails on every run of the level1 workload.
REPRO = (
    "separate", "1", "ab", ("((a|b)(a|b)(a|b))*a(a|b)*", "(b|ab)*"), ("--max-antichain", "100")
)


@dataclass
class Query:
    command: str
    level: str
    alphabet: str
    regexes: tuple
    flags: tuple = ()
    deadline: float = DEADLINE
    expect: bool | None = None  # answer known by construction
    expect_output: str | None = None  # exact output (README examples)
    fixed: bool = False  # not drawn at random: its answer is stored
    # Runs per round. The light queries of families and level1 run more
    # than once, so that their best time rests on more than the few rounds
    # those workloads fit in a run.
    repeat: int = 1

    @property
    def argv(self) -> list:
        return [self.command, "--level", self.level, "--alphabet", self.alphabet,
                *self.flags, *self.regexes]

    @property
    def key(self) -> str:
        """Identity of the question asked, independent of output flags."""
        return " ".join([self.command, self.level, self.alphabet, *self.regexes])


def random_regex(rng: random.Random, alphabet: str, depth: int) -> str:
    any_letter = langs.any_letter(alphabet)
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.6:
            return rng.choice(alphabet)
        if r < 0.8:
            return any_letter
        if r < 0.9:
            return any_letter + "*"
        return "e"
    sub = lambda: random_regex(rng, alphabet, depth - 1)  # noqa: E731
    op = rng.random()
    if op < 0.35:
        return sub() + sub()
    if op < 0.6:
        return "(" + sub() + "|" + sub() + ")"
    if op < 0.8:
        return "(" + sub() + ")*"
    if op < 0.9:
        return any_letter + "*" + sub() + any_letter + "*"
    if op < 0.95:
        return "~(" + sub() + ")"
    return "(" + sub() + "&" + sub() + ")"


def planned_pairs(rng, plan, draws: dict) -> list:
    """One random pair of languages for each (alphabet, monoid size) in `plan`.

    Over each alphabet it judges draws[alphabet] candidate pairs whatever
    the seed, and draws on only while a size is still short, so that the
    set-up time does not depend on how soon the rarer sizes turn up.
    """
    pools = {}
    for alphabet, n in draws.items():
        wanted = Counter(size for a, size in plan if a == alphabet)
        found = {size: [] for size in wanted}
        drawn = 0
        while drawn < n or any(len(found[size]) < k for size, k in wanted.items()):
            drawn += 1
            r1 = random_regex(rng, alphabet, 3)
            r2 = random_regex(rng, alphabet, 3)
            if r1 == r2:
                continue
            size = langs.monoid_size([langs.automaton(r1, alphabet), langs.automaton(r2, alphabet)])
            if size in found and len(found[size]) < wanted[size]:
                found[size].append((r1, r2))
        pools[alphabet] = found
    return [pools[alphabet][size].pop() for alphabet, size in plan]


def known_level_languages(rng, alphabet):
    """(regex, level) for languages whose level is known by construction.

    Unions of length classes are at level 0; marked products of level-0
    languages at 1/2; complements of those at 1; A*wA* at 3/2, being the
    marked product A* a1 {e} a2 ... {e} an A* with {e} at level 1.
    """
    a = langs.any_letter(alphabet)
    k = rng.randint(2, 3)
    j = rng.randint(1, k - 1)
    mod0 = f"({a * k})*|{a * j}({a * k})*"
    x, y = rng.sample(alphabet, 2)
    # These shapes keep the monoid at 7 elements or fewer. Two markers after
    # (A^2)* give 15 or more, where level 1 takes seconds (see CHANGES.md).
    marked = rng.choice([f"{a}*{x}{a}*{y}{a}*", f"({a}{a})*{x}{a}*", f"{a}({a}{a})*{x}{a}*"])
    word = "".join(rng.choice(alphabet) for _ in range(2))
    return [
        (mod0, "0"),
        (marked, "1/2"),
        (f"~({marked})", "1"),
        (f"{a}*{word}{a}*", "3/2"),
    ]


LEVELS = ("0", "1/2", "1", "3/2")


def levels_from(level: str):
    return LEVELS[LEVELS.index(level):]


def assign_flags(rng, queries, shares):
    """Give each flag to an exact, seeded share of the eligible queries."""
    for flag, share, eligible in shares:
        pool = [q for q in queries if eligible(q)]
        for q in rng.sample(pool, round(share * len(pool))):
            q.flags = q.flags + (flag,)


def small_mix(seed: int) -> list:
    """Several hundred cheap queries of every command at every level."""
    rng = random.Random(f"small-mix/{seed}")
    queries = []
    for command, level, alphabet, regexes, flags, output in README_EXAMPLES:
        queries.append(Query(command, level, alphabet, regexes, flags=flags + ("--no-stats",),
                             expect_output=output, fixed=True))
    # The seed draws the languages; the plan of commands and levels, and the
    # monoid size of each group, are the same for every seed, so that the
    # workload's cost moves little from seed to seed. The draws leave on
    # average 23 pairs over ab and 12 over abc of the rarest size (6), where
    # 7 and 3 are needed.
    plan = [("ab" if group % 4 else "abc", 2 + group % 5) for group in range(50)]
    pairs = planned_pairs(rng, plan, {"ab": 400, "abc": 150})
    for group, ((alphabet, _), (r1, r2)) in enumerate(zip(plan, pairs)):
        for level in LEVELS:
            queries.append(Query("separate", level, alphabet, (r1, r2)))
        for level in ("0", "1"):
            queries.append(Query("separate", level, alphabet, (r2, r1)))
        cover_level = LEVELS[1 + group % 3]
        queries.append(Query("cover", cover_level, alphabet, (r1, r2)))
        queries.append(Query("cover", cover_level, alphabet, (r1, r2, f"~({r1})")))
        queries.append(Query("member", LEVELS[group % 4], alphabet, (r1,)))
        queries.append(Query("imprint", LEVELS[1 + group // 5 % 3], alphabet, (r1, r2)))
    for n in range(5):
        alphabet = "ab" if n % 2 else "abc"
        for regex, level in known_level_languages(rng, alphabet):
            for above in levels_from(level):
                queries.append(Query("member", above, alphabet, (regex,), expect=True))
    for command, level, alphabet, regexes, expect in WITNESS_QUERIES:
        queries.append(Query(command, level, alphabet, regexes, flags=("--witness",),
                             expect=expect, fixed=True))
    # Level 1/2 stays out of the seeded --witness share: a positive answer
    # there starts the separator search, whose cost (up to about 1 s, see
    # WITNESS_QUERIES) would move with the seed.
    decisions = lambda q: q.command != "imprint" and q.expect_output is None  # noqa: E731
    assign_flags(rng, queries, [
        ("--witness", 0.3, lambda q: decisions(q) and q.level != "1/2" and not q.fixed),
        ("--emit-imprint", 0.2, lambda q: decisions(q) and q.level != "0" and not q.fixed),
        ("--json", 0.3, lambda q: q.expect_output is None),
        ("--no-stats", 0.5, lambda q: q.expect_output is None),
    ])
    rng.shuffle(queries)
    return queries


def _family_instances():
    """(name, alphabet, L1, L2) for the scaling families, smallest first."""
    out = []
    for alphabet, top in (("ab", 5), ("abc", 2)):
        a = langs.any_letter(alphabet)
        for k in range(1, top + 1):
            out.append((f"kth{k}", alphabet, f"{a}*a{a * (k - 1)}", f"{a}*b{a * (k - 1)}"))
    for alphabet, top in (("ab", 6), ("abc", 4)):
        a = langs.any_letter(alphabet)
        for k in range(1, top + 1):
            out.append((f"residue{k}", alphabet, f"({a * k})*", f"{a}({a * k})*"))
    for alphabet, words in (("ab", ("a", "ab", "aa", "aab", "aba", "abba", "abab")),
                            ("abc", ("ab", "abc"))):
        a = langs.any_letter(alphabet)
        for w in words:
            out.append((f"factor-{w}", alphabet, f"{a}*{w}{a}*", f"~({a}*{w}{a}*)"))
    return out


# Which families queries carry --emit-imprint and --witness is fixed, not
# drawn: both flags can double a query's cost, and drawn they let the seed
# move total_s and query_ms_p90. The seed draws --json, --no-stats and the
# order. The four largest instances over ab (20 to 63 elements) hold most
# of the workload's time.
LARGE_FAMILY = {"kth4", "kth5", "factor-abba", "factor-abab"}
LARGE_EMIT = {"kth4", "factor-abba"}  # at level 3/2


def families(seed: int) -> list:
    """The scaling families at levels 0, 1/2 and 3/2."""
    rng = random.Random(f"families/{seed}")
    queries = []
    for group, (name, alphabet, r1, r2) in enumerate(_family_instances()):
        large = alphabet == "ab" and name in LARGE_FAMILY
        # The smaller instances hold the queries around the 90th percentile,
        # so they run five times a round. Level 0 is decided again from the
        # length sets; the answers above it are stored.
        pair = dict(alphabet=alphabet, repeat=1 if large else 5)
        for level in ("0", "1/2", "3/2"):
            flags = ()
            if large and level == "3/2" and name in LARGE_EMIT:
                flags = ("--emit-imprint",)
            expect = True if name.startswith("factor") and level == "3/2" else None
            queries.append(Query("separate", level, regexes=(r1, r2), flags=flags,
                                 expect=expect, fixed=level != "0", **pair))
        queries.append(Query("separate", "0", regexes=(r2, r1), **pair))
        queries.append(Query("member", "0", regexes=(r1,), **pair))
        if not large:
            # Every third smaller instance asks for the imprint at level
            # 1/2, and every third asks for witnesses (a failing separator
            # search costs up to 0.15 s here).
            for q in queries[-5:]:
                if q.level == "1/2" and group % 3 == 0:
                    q.flags += ("--emit-imprint",)
                if group % 3 == 1:
                    q.flags += ("--witness",)
    assign_flags(rng, queries, [
        ("--json", 1 / 3, lambda q: True),
        ("--no-stats", 0.5, lambda q: True),
    ])
    rng.shuffle(queries)
    return queries


HEAVY_LEVEL1 = [
    ("ab", "(a|b)*a(a|b)(a|b)", "(a|b)*b(a|b)(a|b)"),
    ("ab", "(a|b)*aab(a|b)*", "~((a|b)*aab(a|b)*)"),
    ("ab", "(a|b)*abb(a|b)*", "~((a|b)*abb(a|b)*)"),
]


def level1(seed: int) -> list:
    """Level-1 separation and membership: cheap random pairs plus heavy ones."""
    rng = random.Random(f"level1/{seed}")
    # 100 pairs: 20 of each size from 4 to 7 over ab, 5 of each over abc.
    # On average 600 draws over ab give 34 pairs of the rarest size (6), and
    # 200 over abc give 16 of theirs (7), so the draws rarely run on.
    plan = [("abc" if group % 5 == 0 else "ab", 4 + group % 4) for group in range(100)]
    pairs = planned_pairs(rng, plan, {"ab": 600, "abc": 200})
    queries = []
    for group, ((alphabet, _), (r1, r2)) in enumerate(zip(plan, pairs)):
        pair = dict(alphabet=alphabet, repeat=5)
        queries.append(Query("separate", "1", regexes=(r1, r2), **pair))
        if group % 4 == 1:
            queries.append(Query("separate", "1", regexes=(r2, r1), **pair))
        queries.append(Query("member", "1", regexes=(r1,), **pair))
    for n in range(6):
        alphabet = "ab" if n % 2 else "abc"
        for regex, level in known_level_languages(rng, alphabet)[:3]:
            queries.append(Query("member", "1", alphabet, (regex,), expect=True, repeat=5))
    for alphabet, r1, r2 in HEAVY_LEVEL1:
        queries.append(Query("separate", "1", alphabet, (r1, r2), fixed=True))
    command, level, alphabet, regexes, flags = REPRO
    queries.append(Query(command, level, alphabet, regexes, flags=flags,
                         deadline=REPRO_DEADLINE, fixed=True))
    assign_flags(rng, queries, [
        ("--witness", 0.3, lambda q: not q.fixed),
        ("--json", 0.3, lambda q: not q.fixed),
        ("--no-stats", 0.5, lambda q: not q.fixed),
    ])
    rng.shuffle(queries)
    return queries


WORKLOADS = {"small-mix": small_mix, "families": families, "level1": level1}

# CPU seconds one round of each workload takes at the reference speed
# (run.REFERENCE_FLOOR), measured. A run makes round(seconds / ROUND_SECONDS)
# rounds, at least one, so that the number of samples behind each per-query
# best does not move with the machine's speed.
ROUND_SECONDS = {"small-mix": 2.0, "families": 9.0, "level1": 30.0}
