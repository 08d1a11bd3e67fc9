"""The one resource budget: every field can be tripped, and no module keeps its own."""

import ast
import contextlib
import io
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modhier
from modhier import Budget, BudgetExceededError, compile_regex, member, parse_regex
from modhier.rating import canonical_covering_map
from modhier.engines import bpol_iopti, pbpol_iopti
from modhier.lang import complement, transition_monoid

from gen import AB, ORACLE, lang
from oracles import bpol_iopti_enumerated, eval_regular, value_automaton


def evaluate(budget):
    language = lang("(ab)*")
    return eval_regular(canonical_covering_map(transition_monoid([language])), language, budget)


# field, tiny limit, the bounded thing the error names, a query that grows past it
TRIPS = [
    ("states", 1, "state", lambda b: compile_regex(parse_regex("(a|b)*b", AB), AB, b)),
    ("monoid", 1, "monoid", lambda b: member("1/2", lang("a*"), ORACLE, b)),
    ("antichain", 1, "antichain", lambda b: member("1/2", lang("a*"), ORACLE, b)),
    ("iterations", 1, "iteration", lambda b: member("1", lang("a*"), ORACLE, b)),
    ("values", 1, "rating value",
     lambda b: value_automaton(canonical_covering_map(transition_monoid([lang("a*")])), b)),
    ("values", 1, "evaluation pair", evaluate),
    ("values", 1, "omega power", lambda b: member("1/2", lang("(aaa)*"), ORACLE, b)),
]


def trip_ids(trips):
    """Each row by its field; a further row on a field also by what its error names."""
    ids = []
    for field, _, what, _ in trips:
        ids.append(f"{field}-{what.replace(' ', '-')}" if field in ids else field)
    return ids


@pytest.mark.parametrize("field, limit, what, query", TRIPS, ids=trip_ids(TRIPS))
def test_each_budget_field_trips_by_name(field, limit, what, query):
    with pytest.raises(BudgetExceededError) as caught:
        query(Budget(**{field: limit}))
    assert (caught.value.what, caught.value.limit) == (what, limit)
    assert str(caught.value) == f"{what} budget exceeded (limit {limit})"
    query(Budget())  # the same query fits the defaults


def test_trips_cover_every_field():
    assert {t[0] for t in TRIPS} == set(vars(Budget()))


def test_rating_evaluation_has_no_budget_field_of_its_own():
    assert list(vars(Budget())) == ["states", "monoid", "antichain", "iterations", "values"]
    with pytest.raises(TypeError):
        Budget(pairs=1)


BUDGET_KEYWORDS = {"max_states", "max_monoid", "max_antichain", "max_iterations", "max_values",
                   "max_pairs", "max_elements"}


def test_no_module_but_errors_keeps_its_own_budget():
    """No budget constants or keywords, and no budget error built but by `Budget.exceeded`."""
    package = Path(modhier.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id.startswith("DEFAULT_") and node.id.endswith("_BUDGET"):
                    found.append((path.name, node.id))
            elif isinstance(node, ast.arg) and node.arg in BUDGET_KEYWORDS:
                found.append((path.name, node.arg))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "BudgetExceededError":
                    found.append((path.name, node.lineno))
    assert found == []


def rounds_and_query(level):
    """Rounds the fixpoint of (ab)* takes at a level, and a query that runs it."""
    language = lang("(ab)*")
    morphism = transition_monoid([language, complement(language)])
    rho = canonical_covering_map(morphism)
    if level == "1":
        return bpol_iopti(rho, ORACLE).passes, lambda b: member("1", language, ORACLE, b)
    if level == "3/2":
        return pbpol_iopti(morphism, rho, ORACLE).passes, lambda b: member("3/2", language, ORACLE, b)
    return bpol_iopti_enumerated(rho, ORACLE).passes, lambda b: bpol_iopti_enumerated(rho, ORACLE, b)


@pytest.mark.parametrize("level", ["1", "3/2", "enumerated"])
def test_fixpoints_trip_one_round_short(level):
    # Every fixpoint draws its rounds from `Budget.rounds`: a limit of
    # one round fewer than it takes trips it, and its own count fits.
    rounds, query = rounds_and_query(level)
    assert rounds >= 2
    limit = rounds - 1
    with pytest.raises(BudgetExceededError, match=rf"^iteration budget exceeded \(limit {limit}\)$"):
        query(Budget(iterations=limit))
    query(Budget(iterations=rounds))


def test_enumerated_level_one_filter_materializes_its_carrier_within_the_antichain_budget():
    rho = canonical_covering_map(transition_monoid([lang("(ab)*")]))
    with pytest.raises(BudgetExceededError) as caught:
        bpol_iopti_enumerated(rho, ORACLE, Budget(antichain=3))
    assert str(caught.value) == "downset materialization budget exceeded (limit 3)"
    bpol_iopti_enumerated(rho, ORACLE, Budget())


def test_readme_budget_snippet_prints_what_it_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library, budget = re.findall(r"```python\n(.*?)```", readme[readme.index("## Library"):], re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        namespace = {}
        exec(library, namespace)
        exec(budget, namespace)
    assert printed.getvalue().splitlines()[-1] == "antichain budget exceeded (limit 1)"
    assert "# antichain budget exceeded (limit 1)" in budget


# The known level-1 hang: the subset enumeration behind each round of the
# level-1 filter (`engines.admissible_totals`) draws on no budget.
LEVEL_ONE_REPRO = ["separate", "--level", "1", "--alphabet", "ab",
                   "((a|b)(a|b)(a|b))*a(a|b)*", "(b|ab)*", "--max-antichain", "100"]


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="the level-1 subset enumeration has no budget")
def test_the_level_one_repro_ends_in_an_answer_or_a_budget_error():
    """Every query ends: with an answer (exit 0) or a named budget (exit 3),
    within 3 s and 1 GiB of address space. Only the hang is expected to
    fail; running out of memory or any other exit fails the test."""
    src = Path(modhier.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "modhier.cli", *LEVEL_ONE_REPRO],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=3,
        preexec_fn=limit_address_space,
    )
    assert done.returncode in (0, 3), done.stderr


def regexes(alphabet: str, depth: int):
    """Regex text over the alphabet's letters, `e` and `0`, with `|`, `&`,
    concatenation, `*` and `~`, nested at most `depth` deep."""
    leaf = st.sampled_from([*alphabet, "e", "0"])
    if depth == 0:
        return leaf
    sub = regexes(alphabet, depth - 1)
    return st.one_of(
        leaf,
        st.builds("({}|{})".format, sub, sub),
        st.builds("({}&{})".format, sub, sub),
        st.builds("({}{})".format, sub, sub),
        st.builds("({})*".format, sub),
        st.builds("~({})".format, sub),
    )


# The fewest and the most regexes each command reads.
ARITIES = {"member": (1, 1), "separate": (2, 2), "cover": (2, 3), "imprint": (1, 2)}


@st.composite
def query_lines(draw) -> str:
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    level = draw(st.sampled_from(["0", "1/2", "3/2"]))
    # Covering and imprints are refused at level 0, on purpose.
    command = draw(st.sampled_from(list(ARITIES) if level != "0" else ["member", "separate"]))
    count = draw(st.integers(*ARITIES[command]))
    args = [command, "--level", level, "--alphabet", alphabet]
    if draw(st.booleans()):
        args += ["--witness"]
    for option in ("--max-states", "--max-antichain"):
        if draw(st.integers(0, 3)) == 0:
            args += [option, str(draw(st.integers(1, 30)))]
    args += [draw(regexes(alphabet, 4)) for _ in range(count)]
    return shlex.join(args)


BUDGET_ERROR = re.compile(r"error: [a-z -]+ budget exceeded \(limit \d+\)")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(query_lines(), min_size=1, max_size=4))
def test_every_query_file_ends_in_answers_or_budget_errors(lines):
    """Every query of a batch file ends in an answer or a named budget
    (exit 0 or 3), within 30 s and 1 GiB of address space, and nothing
    else reaches stderr, so a traceback fails the test.

    Level 1 is left out: its subset enumeration draws on no budget and
    hangs, as `test_the_level_one_repro_ends_in_an_answer_or_a_budget_error`
    pins by its strict xfail. The level-1 fix by ceilings (ROADMAP,
    direction 1) adds level 1 here.
    """
    src = Path(modhier.__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "queries.txt"
        path.write_text("\n".join(lines) + "\n")
        done = subprocess.run(
            [sys.executable, "-m", "modhier.cli", "batch", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=limit_address_space,
        )
    assert done.returncode in (0, 3), done.stderr
    answers = [x for x in done.stdout.splitlines() if x.startswith(("RESULT:", "IMPRINT:"))]
    errors = done.stderr.splitlines()
    assert all(BUDGET_ERROR.fullmatch(x) for x in errors), done.stderr
    assert len(answers) + len(errors) == len(lines)
