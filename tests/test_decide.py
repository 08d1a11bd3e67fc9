"""Verdict tests: separation, covering, and membership across levels."""

import contextlib
import io
import random
import re
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modhier import engines
from modhier.decide import COVER_LEVELS, LEVELS, Verdict, coverable, level_imprint, member, separable
from modhier.engines import pbpol_iopti
from modhier.errors import Budget, BudgetExceededError, InputError, UnsupportedError
from modhier.lang import (
    Alphabet,
    Dfa,
    complement,
    disjoint,
    transition_monoid,
)
from modhier.rating import canonical_covering_map
from modhier.refcheck import candidate_language, pol_mod_separator_search
from modhier.refcheck import SeparatorCandidate
from modhier.semiring import PowerSemiring
from modhier.lang import included

from gen import (
    A,
    AB,
    LEVEL_ONE_SIZE_CAP,
    ORACLE,
    SeparationOnlyOracle,
    boolean_combination_language,
    drawn_instances,
    image_of_word,
    lang,
    marked_concatenation_language,
    marked_product_language,
    pbpol_iopti_all_candidates,
    random_dfa,
    random_instances,
    random_regex,
    residue_language,
    search_pairs,
)

SEPARATION_ONLY = SeparationOnlyOracle()


# ---------------------------------------------------------------------------
# The canonical chain: a* against words containing b


@pytest.mark.parametrize("level", LEVELS)
def test_verdict_chain(level):
    """Separation fails through level 1/2 and succeeds from level 1 on,
    each level answering within a 10 s ceiling."""
    started = time.perf_counter()
    verdict = separable(level, lang("a*"), lang("(a|b)*b(a|b)*"), ORACLE)
    assert time.perf_counter() - started < 10
    assert verdict == Verdict(level in ("1", "3/2"), None, verdict.stats)


def test_unreachable_states_enlarge_the_monoid_but_keep_the_answers():
    # `transition_monoid` expects every state reachable. A hand-built a*
    # with an unreachable third state gets a 5-element monoid instead of
    # 2; it still recognizes a*, so every answer stays.
    reachable = lang("a*")
    raw = Dfa(AB, reachable.transitions + ((0, 2),), 0, reachable.accepting)
    assert (transition_monoid([raw]).size, transition_monoid([reachable]).size) == (5, 2)
    answers = []
    for level in ("1/2", "1", "3/2"):
        assert member(level, raw, ORACLE).answer == member(level, reachable, ORACLE).answer
        for other in (lang("(a|b)*b(a|b)*"), lang("(ab)*"), lang("(aa)*b")):
            for x, y, x0, y0 in ((raw, other, reachable, other), (other, raw, other, reachable)):
                answers.append(separable(level, x, y, ORACLE).answer)
                assert answers[-1] == separable(level, x0, y0, ORACLE).answer
    assert True in answers and False in answers


def test_even_separates_from_odd_at_every_level():
    even, odd = lang("(aa)*", A), lang("a(aa)*", A)
    for level in LEVELS:
        assert separable(level, even, odd, ORACLE).answer, level


# ---------------------------------------------------------------------------
# Covering fixtures


def test_cover_even_against_odd_at_half():
    assert coverable("1/2", lang("(aa)*", A), [lang("a(aa)*", A)], ORACLE).answer


def test_cover_letter_star_against_marked_b():
    target, marked = lang("a*"), lang("(a|b)*b(a|b)*")
    assert not coverable("1/2", target, [marked], ORACLE).answer
    assert coverable("1", target, [marked], ORACLE).answer


def test_cover_level_zero_unsupported():
    with pytest.raises(UnsupportedError):
        coverable("0", lang("a*"), [lang("b*")], ORACLE)


def test_unknown_level_rejected():
    with pytest.raises(InputError):
        separable("5/2", lang("a*"), lang("b*"), ORACLE)


def test_cover_needs_constraints():
    with pytest.raises(InputError):
        coverable("1/2", lang("a*"), [], ORACLE)


def test_alphabet_mismatch_rejected():
    with pytest.raises(InputError):
        separable("1/2", lang("a*", A), lang("a*"), ORACLE)
    with pytest.raises(InputError):
        coverable("1/2", lang("a*", A), [lang("a*")], ORACLE)


# ---------------------------------------------------------------------------
# Membership fixtures


def test_member_marked_letter_at_half():
    assert member("1/2", lang("(a|b)*a(a|b)*"), ORACLE).answer


def test_member_empty_word_language_at_one():
    assert member("1", lang("e"), ORACLE).answer


# Every word of length at most three over `ab`, the empty one as `e`.
SHORT_WORDS = ["".join(w) or "e" for n in range(4) for w in product("ab", repeat=n)]


@pytest.mark.parametrize("word", SHORT_WORDS)
def test_short_words_are_members_at_level_one_and_above(word):
    language = lang(word)
    assert member("1", language, ORACLE).answer
    assert member("3/2", language, ORACLE).answer


def test_member_level_zero_is_length_membership():
    assert member("0", lang("(aa)*", A), ORACLE).answer
    assert not member("0", lang("(a|b)*a(a|b)*"), ORACLE).answer


def test_empty_language_separable_from_itself():
    empty = lang("0", A)
    for level in LEVELS:
        assert separable(level, empty, empty, ORACLE).answer, level


# ---------------------------------------------------------------------------
# Witnesses and stats


def test_separator_search_draws_on_the_callers_budget():
    # The inputs compile under the default budget; the separator A*aA*
    # has a 2-state DFA, more than the caller's one state allows, so
    # the search ends there with no witness and the answer stands.
    l1, l2 = lang("(a|b)*a(a|b)*"), lang("b*")
    assert separable("1/2", l1, l2, ORACLE, Budget(states=1)).answer
    bounded = separable("1/2", l1, l2, ORACLE, Budget(states=1), want_witness=True)
    assert (bounded.answer, bounded.witness) == (True, None)
    found = separable("1/2", l1, l2, ORACLE, Budget(), want_witness=True)
    assert found.witness == {"separator": {"modulus": 1, "markers": ["a"]}}


def test_witness_absent_by_default():
    assert separable("0", lang("(aa)*", A), lang("a(aa)*", A), ORACLE).witness is None
    assert separable("1/2", lang("a*"), lang("(a|b)*b(a|b)*"), ORACLE).witness is None


def test_stats_shape():
    covering = separable("1/2", lang("a*"), lang("(a|b)*b(a|b)*"), ORACLE).stats
    assert set(covering) == {"monoid", "iterations", "antichain", "ms"}
    assert covering["monoid"] == 2
    basic = separable("0", lang("a*", A), lang("a*", A), ORACLE).stats
    assert set(basic) == {"ms"}


# ---------------------------------------------------------------------------
# Random properties


@settings(max_examples=30, deadline=None)
@given(drawn_instances(size_cap=8))
@example(random_instances(200, 4000, size_cap=8))
# Level-3/2 queries that end under the default budget.
@example(random_instances(20, 10_000, size_cap=8))
def test_separability_monotone_across_levels(pairs):
    """Separability only switches from no to yes as the level rises, and
    intersecting pairs never separate."""
    for l1, l2 in pairs:
        answers = [separable(level, l1, l2, ORACLE).answer for level in LEVELS]
        for low, high in zip(answers, answers[1:]):
            assert (not low) or high
        if not disjoint(l1, l2):
            assert not any(answers)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.text("ab", max_size=3))
def test_languages_sharing_a_word_are_never_separated(seed, word):
    """(r1)|w and (r2)|w both hold the word w. A separator would have to
    hold w and avoid it, so at no level is one separable from the other
    or coverable against it. The monoid stays small, as level 1 has no
    budget on its subset enumeration yet."""
    rng = random.Random(seed)
    l1, l2 = (lang(f"({random_regex(rng, AB)})|{word or 'e'}") for _ in range(2))
    assume(transition_monoid([l1, l2]).size <= LEVEL_ONE_SIZE_CAP)
    for level in LEVELS:
        assert not separable(level, l1, l2, ORACLE).answer, level
    for level in COVER_LEVELS:
        assert not coverable(level, l1, [l2], ORACLE).answer, level


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_covering_monotone_in_constraints(seed):
    rng = random.Random(seed)
    l0, l1, l2 = (random_dfa(rng, AB) for _ in range(3))
    assume(transition_monoid([l0, l1, l2]).size <= 8)
    for level in ("1/2", "1"):
        if coverable(level, l0, [l1], ORACLE).answer:
            assert coverable(level, l0, [l1, l2], ORACLE).answer, level


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_member_level_one_complement_symmetric(seed):
    rng = random.Random(seed)
    language = random_dfa(rng, AB)
    assume(transition_monoid([language, complement(language)]).size <= 8)
    direct = member("1", language, ORACLE).answer
    mirrored = member("1", complement(language), ORACLE).answer
    assert direct == mirrored


@settings(max_examples=25, deadline=None)
@given(drawn_instances(size_cap=None))
@example(search_pairs())
def test_separator_search_success_implies_half_verdict(pairs):
    for l1, l2 in pairs:
        found = pol_mod_separator_search(l1, l2, dmax=2, nmax=2, union_bound=2)
        if found is not None:
            assume(transition_monoid([l1, l2]).size <= 10)
            assert separable("1/2", l1, l2, ORACLE).answer


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_witnesses_are_independently_checkable(seed):
    rng = random.Random(seed)
    l1 = random_dfa(rng, AB)
    l2 = random_dfa(rng, AB)
    morphism = transition_monoid([l1, l2])
    assume(morphism.size <= 8)
    verdict = separable("1/2", l1, l2, ORACLE, want_witness=True)
    if not verdict.answer:
        blocking = verdict.witness["blocking"]
        assert image_of_word(morphism, blocking["word"]) == blocking["element"]
        assert blocking["element"] in morphism.accept_sets[0]
        assert set(blocking["image"]) & set(morphism.accept_sets[1])
    elif verdict.witness is not None:
        fields = verdict.witness["separator"]
        denoted = candidate_language(
            SeparatorCandidate(fields["modulus"], tuple(fields["markers"])), AB
        )
        assert included(l1, denoted)
        assert disjoint(denoted, l2)


# The empty word's value under each level's imprint: the unit, paired
# with the unit at levels 1/2 and 3/2.
UNIT_VALUES = {"1/2": (0, frozenset({0})), "1": frozenset({0}), "3/2": (0, frozenset({0}))}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_imprints_under_a_separation_only_basis_oracle(seed):
    """The engines give the closed form's imprints and iterations when
    the basis value comes from basis separation alone, and every imprint
    holds the empty word's value, though no completion seeds it."""
    rng = random.Random(seed)
    texts = [random_regex(rng, AB, depth=4) for _ in range(rng.randint(1, 3))]
    dfas = [lang(text) for text in texts]
    assume(transition_monoid(dfas).size <= LEVEL_ONE_SIZE_CAP)
    for level, unit_value in UNIT_VALUES.items():
        _, closed = level_imprint(level, dfas, ORACLE)
        _, generic = level_imprint(level, dfas, SEPARATION_ONLY)
        assert (generic.maximal, generic.passes) == (closed.maximal, closed.passes)
        assert unit_value in generic


# Marked products of level-1 languages can have thousands of derivatives
# or monoid elements; about two in three fit these bounds.
SMALL_BUILD = Budget(states=256, monoid=64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_languages_built_at_a_level_are_members_there_and_above(seed):
    """Ground truth by construction: unions of length residues lie at
    level 0, marked products of length-residue blocks at level 1/2,
    Boolean combinations of those at level 1, marked products of two of
    those at level 3/2, and each lies at every level above its own.
    Level 1 is asked only of monoids within `LEVEL_ONE_SIZE_CAP`, where
    its engine is known to end. A level-3/2 language is built only within
    `SMALL_BUILD`, so its monoid has at most 64 elements."""
    rng = random.Random(seed)
    alphabet = rng.choice([A, AB, Alphabet.of("abc")])
    built = [
        ("0", residue_language(rng, alphabet)),
        ("1/2", marked_product_language(rng, alphabet)),
        ("1", boolean_combination_language(rng, alphabet)),
    ]
    try:
        language = marked_concatenation_language(rng, alphabet, SMALL_BUILD)
        transition_monoid([language], SMALL_BUILD)
    except BudgetExceededError:
        pass
    else:
        built.append(("3/2", language))
        # Ground truth for the engine's shortcuts, the idempotent search
        # among them: the rule applied to every candidate below each
        # basis value, on the language's covering map.
        morphism = transition_monoid([language])
        rho = canonical_covering_map(morphism)
        reference = pbpol_iopti_all_candidates(morphism, rho, ORACLE)
        assert pbpol_iopti(morphism, rho, ORACLE).maximal == reference.maximal
    for level, language in built:
        small = transition_monoid([language]).size <= LEVEL_ONE_SIZE_CAP
        for above in LEVELS[LEVELS.index(level):]:
            if above != "1" or small:
                assert member(above, language, ORACLE).answer, (level, above)


# ---------------------------------------------------------------------------
# Work guards


def test_level_one_closes_the_pair_values_once_per_query(monkeypatch):
    """The level-1 fixpoint keeps the sums of its pair values for the call,
    so its second round forms none; the sums are masks, not unions."""
    calls, closures = [], []
    original, closure = PowerSemiring.add, engines.add_closure

    def counting(self, x, y):
        calls.append(1)
        return original(self, x, y)

    def spy_closure(semiring, xs):
        xs = list(xs)
        sums = closure(semiring, xs)
        closures.append((len(xs), len(sums)))
        return sums

    monkeypatch.setattr(PowerSemiring, "add", counting)
    monkeypatch.setattr(engines, "add_closure", spy_closure)
    factor = "(a|b)*aab(a|b)*"
    verdict = separable("1", lang(factor), lang(f"~({factor})"), ORACLE)
    assert not verdict.answer
    # One closure of the 9 values into 511 sums for the whole query.
    assert closures == [(9, 511)]
    # 141,065 unions when the closure summed frozensets; with the sums on
    # masks, 6 remain, none of them in the closure.
    assert len(calls) <= 6


def test_level_three_halves_keeps_one_object_per_product():
    """Equal products share one object, so the memo tables and rows of the
    level-3/2 fixpoint hold no duplicates."""
    kth5 = "(a|b)*{}(a|b)(a|b)(a|b)(a|b)"
    l1, l2 = lang(kth5.format("a")), lang(kth5.format("b"))
    tracemalloc.start()
    try:
        verdict = separable("3/2", l1, l2, ORACLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.answer
    # 1.51–1.52 MB when each product was a new object, 0.45–0.48 MB with
    # one object per value.
    assert peak < 0.8 * 2**20


# ---------------------------------------------------------------------------
# The package root


def test_readme_library_snippet_runs_from_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "from modhier import " in snippet
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(snippet, {})
    assert printed.getvalue().splitlines() == ["0 False", "1/2 False", "1 True", "3/2 True"]
    assert "# 0 False / 1/2 False / 1 True / 3/2 True" in snippet
