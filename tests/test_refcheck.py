"""The level-1/2 separator search: candidate denotations, verification,
and the search against its unfiltered reference."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhier import refcheck
from modhier.errors import Budget, BudgetExceededError
from modhier.lang import (
    Alphabet,
    complement,
    disjoint,
    included,
    iter_short_words,
)
from modhier.refcheck import (
    DMAX,
    NMAX,
    UNION_BOUND,
    SeparatorCandidate,
    candidate_language,
    marked_product_accepts,
    pol_mod_separator_search,
    verify_separator,
)

from command_lines import ANY, NOT_A, WIDE
from gen import (
    A,
    AB,
    count_calls,
    drawn_instances,
    lang,
    named,
    random_dfa,
    search_pairs,
)
from oracles import accepts, equivalent


# ---------------------------------------------------------------------------
# Candidate denotations


# Each candidate, over an alphabet, with a regex of what it denotes.
DENOTATIONS = [
    ("candidate_empty_union_denotes_empty", SeparatorCandidate(3, ()), AB, "0"),
    ("candidate_blank_marker_denotes_block", SeparatorCandidate(2, ("",)), A, "(aa)*"),
    ("candidate_single_marker", SeparatorCandidate(1, ("a",)), AB, "(a|b)*a(a|b)*"),
    ("candidate_marker_inside_blocks", SeparatorCandidate(2, ("b",)), AB,
     "((a|b)(a|b))*b((a|b)(a|b))*"),
    ("candidate_two_letter_marker_word", SeparatorCandidate(2, ("ab",)), AB,
     "((a|b)(a|b))*a((a|b)(a|b))*b((a|b)(a|b))*"),
    ("candidate_union_of_products", SeparatorCandidate(2, ("", "a")), A, "(aa)*|(aa)*a(aa)*"),
]


@pytest.mark.parametrize("candidate, alphabet, regex", named(DENOTATIONS))
def test_candidate_denotes(candidate, alphabet, regex):
    assert equivalent(candidate_language(candidate, alphabet), lang(regex, alphabet))


def test_candidate_rejects_bad_modulus():
    with pytest.raises(ValueError):
        SeparatorCandidate(0, ())


# ---------------------------------------------------------------------------
# Separator verification and search


# A language K and a pair L1, L2 over `a`, with whether K separates them.
VERIFICATIONS = [
    ("verify_separator_accepts_true_separator", "(aa)*", "(aaaa)*", "a(aa)*", True),
    ("verify_separator_rejects_non_disjoint", "a*", "(aa)*", "a(aa)*", False),
    ("verify_separator_rejects_non_covering", "aa", "(aa)*", "a(aa)*", False),
]


@pytest.mark.parametrize("k, l1, l2, separates", named(VERIFICATIONS))
def test_verify_separator(k, l1, l2, separates):
    assert verify_separator(lang(k, A), lang(l1, A), lang(l2, A)) == separates


# A pair, the search's bounds (dmax, nmax, union_bound) and what it finds.
SEARCHES = [
    ("search_finds_parity_block", lang("(aa)*", A), lang("a(aa)*", A), (2, 2, 1),
     SeparatorCandidate(2, ("",))),
    ("search_finds_marked_letter", lang("(a|b)*a(a|b)*"), lang("b*"), (1, 1, 1),
     SeparatorCandidate(1, ("a",))),
    ("search_exhausts_on_inseparable_pair", lang("a*"), lang("(a|b)*b(a|b)*"), (4, 3, 2), None),
    ("search_empty_left_language_uses_empty_union", lang("0"), lang("a*"), (3, 2, 2),
     SeparatorCandidate(1, ())),
]


@pytest.mark.parametrize("l1, l2, bounds, found", named(SEARCHES))
def test_search_finds(l1, l2, bounds, found):
    assert pol_mod_separator_search(l1, l2, *bounds) == found


def test_verification_walks_within_the_search_budget():
    # (aa)* verifies against (aaaa)* and a(aa)*, walking at most 4 product states.
    k, l1, l2 = lang("(aa)*", A), lang("(aaaa)*", A), lang("a(aa)*", A)
    assert verify_separator(k, l1, l2, Budget(monoid=4))
    with pytest.raises(BudgetExceededError) as caught:
        verify_separator(k, l1, l2, Budget(monoid=3))
    assert str(caught.value) == "product state budget exceeded (limit 3)"
    bounds = dict(dmax=2, nmax=2, union_bound=1)
    found = pol_mod_separator_search(l1, l2, **bounds, budget=Budget(monoid=4))
    assert found == SeparatorCandidate(2, ("",))
    # An overrun ends the search with no witness.
    assert pol_mod_separator_search(l1, l2, **bounds, budget=Budget(monoid=3)) is None


def test_search_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        pol_mod_separator_search(lang("a*", A), lang("a*"), dmax=1, nmax=1, union_bound=1)


@settings(max_examples=60, deadline=None)
@given(drawn_instances(size_cap=None), st.just(0))
# The kept pairs, on which the search finds at least two separators.
@example(search_pairs(), 2)
def test_search_results_always_verify(pairs, least_hits):
    hits = 0
    for l1, l2 in pairs:
        found = pol_mod_separator_search(l1, l2, dmax=2, nmax=2, union_bound=2)
        if found is not None:
            hits += 1
            denoted = candidate_language(found, l1.alphabet)
            assert included(l1, denoted)
            assert disjoint(denoted, l2)
    assert hits >= least_hits


@settings(max_examples=60, deadline=None)
@given(drawn_instances(size_cap=None), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
# The kept pairs, under a `states` budget the first compiled candidate outgrows.
@example(search_pairs(), 1, 4, 3)
def test_a_budgeted_search_finds_the_unbudgeted_witness_or_none(pairs, states, monoid, antichain):
    budget = Budget(states=states, monoid=monoid, antichain=antichain)
    for l1, l2 in pairs:
        found = pol_mod_separator_search(l1, l2, budget=budget)
        assert found is None or found == pol_mod_separator_search(l1, l2)


# ---------------------------------------------------------------------------
# The word test that runs before a candidate is compiled


def unfiltered_search(l1, l2, dmax, nmax, union_bound):
    """The reference search: every candidate is compiled and verified."""
    pool = list(iter_short_words(l1, nmax))
    for d in range(1, dmax + 1):
        for size in range(0, union_bound + 1):
            for markers in combinations(pool, size):
                candidate = SeparatorCandidate(d, markers)
                if verify_separator(candidate_language(candidate, l1.alphabet), l1, l2):
                    return candidate
    return None


MOD3_AB = "((a|b)(a|b)(a|b))*|(a|b)(a|b)((a|b)(a|b)(a|b))*"
MOD3_ABC = "((a|b|c)(a|b|c)(a|b|c))*|(a|b|c)(a|b|c)((a|b|c)(a|b|c)(a|b|c))*"
WITNESS_PAIRS = [
    (MOD3_AB, None),  # member: against the complement
    ("(a|b)*a(a|b)*", "b*"),
    ("a*", "(a|b)*b(a|b)*"),
    ("(a|b)*b(a|b)*", "a*"),
    ("(aa)*", "a(aa)*"),
    ("(a|b)*ab(a|b)*", "~((a|b)*ab(a|b)*)"),
    ("(a|b)*a(a|b)", "(a|b)*b(a|b)"),
]


@pytest.mark.parametrize("first, second", WITNESS_PAIRS)
def test_filtered_search_matches_unfiltered_on_fixed_pairs(first, second):
    l1 = lang(first)
    l2 = complement(l1) if second is None else lang(second)
    assert pol_mod_separator_search(l1, l2) == unfiltered_search(l1, l2, DMAX, NMAX, UNION_BOUND)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_filtered_search_matches_unfiltered_on_random_pairs(seed):
    rng = random.Random(seed)
    l1, l2 = random_dfa(rng, AB), random_dfa(rng, AB)
    bounds = (3, 2, 2)
    assert pol_mod_separator_search(l1, l2, *bounds) == unfiltered_search(l1, l2, *bounds)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.text(alphabet="ab", max_size=3),
    st.lists(st.text(alphabet="ab", max_size=9), max_size=12),
)
def test_marked_product_accepts_matches_compiled_product(modulus, marker, words):
    denoted = candidate_language(SeparatorCandidate(modulus, (marker,)), AB)
    for word in words:
        assert marked_product_accepts(word, modulus, marker) == accepts(denoted, word)


def test_search_compiles_few_candidates_on_three_letters(monkeypatch):
    compiled = count_calls(monkeypatch, refcheck, "candidate_language")
    l1 = lang(MOD3_ABC, Alphabet.of("abc"))
    assert pol_mod_separator_search(l1, complement(l1)) is None
    assert len(compiled) < 5


def test_search_finds_its_probe_words_without_dead_layers():
    # No word of the second language has 4 letters or less: enumerating
    # all 25^4 words of length 4 to find so peaked at 45 MB.
    wide = Alphabet.of(WIDE)
    l1, l2 = lang("a", wide), lang(NOT_A * 6 + "*", wide)
    tracemalloc.start()
    try:
        found = pol_mod_separator_search(l1, l2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == SeparatorCandidate(1, ("a",))
    assert peak < 2**20


def test_search_tries_at_most_the_antichain_budget_of_candidates(monkeypatch):
    # 625 two-letter markers make 195,626 candidates per modulus, and
    # none separates: the budget ends the search with no witness.
    wide = Alphabet.of(WIDE)
    l1, l2 = lang(ANY * 2 + "(" + ANY * 5 + ")*", wide), lang("(" + ANY * 5 + ")*", wide)
    tried = count_calls(monkeypatch, refcheck, "_agrees_on")
    assert pol_mod_separator_search(l1, l2, budget=Budget(antichain=100)) is None
    assert 0 < len(tried) <= 100
