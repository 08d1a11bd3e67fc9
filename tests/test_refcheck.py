"""Brute-force cross-checks: separator search, direct iopti minimization,
and the enumerated level-1 filter."""

import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhier.basis import mod_cover_oracle, mod_iopti
from modhier import refcheck
from modhier.errors import Budget, BudgetExceededError
from modhier.lang import (
    Alphabet,
    complement,
    disjoint,
    included,
    iter_short_words,
)
from modhier.rating import RatingMap
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
from modhier.semiring import PowerSemiring

from command_lines import ANY, NOT_A, WIDE
from gen import (
    A,
    AB,
    CyclicMonoid,
    TableSemiring,
    count_calls,
    drawn_instances,
    fs,
    lang,
    random_dfa,
    search_pairs,
    seeded_maps,
)
from oracles import (
    accepts,
    block_language,
    bpol_iopti_enumerated,
    brute_iopti_mod,
    downset_elements,
    equivalent,
    eval_regular,
    is_empty,
    mod_iopti_bound,
)


# ---------------------------------------------------------------------------
# Candidate denotations


def test_candidate_empty_union_denotes_empty():
    assert is_empty(candidate_language(SeparatorCandidate(3, ()), AB))


def test_candidate_blank_marker_denotes_block():
    denoted = candidate_language(SeparatorCandidate(2, ("",)), A)
    assert equivalent(denoted, lang("(aa)*", A))


def test_candidate_single_marker():
    denoted = candidate_language(SeparatorCandidate(1, ("a",)), AB)
    assert equivalent(denoted, lang("(a|b)*a(a|b)*"))


def test_candidate_marker_inside_blocks():
    denoted = candidate_language(SeparatorCandidate(2, ("b",)), AB)
    assert equivalent(denoted, lang("((a|b)(a|b))*b((a|b)(a|b))*"))


def test_candidate_two_letter_marker_word():
    denoted = candidate_language(SeparatorCandidate(2, ("ab",)), AB)
    pattern = "((a|b)(a|b))*a((a|b)(a|b))*b((a|b)(a|b))*"
    assert equivalent(denoted, lang(pattern))


def test_candidate_union_of_products():
    denoted = candidate_language(SeparatorCandidate(2, ("", "a")), A)
    assert equivalent(denoted, lang("(aa)*|(aa)*a(aa)*", A))


def test_candidate_rejects_bad_modulus():
    with pytest.raises(ValueError):
        SeparatorCandidate(0, ())


def test_block_language_matches_regex():
    assert equivalent(block_language(AB, 3), lang("((a|b)(a|b)(a|b))*"))


# ---------------------------------------------------------------------------
# Separator verification and search


def test_verify_separator_accepts_true_separator():
    assert verify_separator(lang("(aa)*", A), lang("(aaaa)*", A), lang("a(aa)*", A))


def test_verify_separator_rejects_non_disjoint():
    assert not verify_separator(lang("a*", A), lang("(aa)*", A), lang("a(aa)*", A))


def test_verify_separator_rejects_non_covering():
    assert not verify_separator(lang("aa", A), lang("(aa)*", A), lang("a(aa)*", A))


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


def test_search_finds_parity_block():
    found = pol_mod_separator_search(
        lang("(aa)*", A), lang("a(aa)*", A), dmax=2, nmax=2, union_bound=1
    )
    assert found == SeparatorCandidate(2, ("",))


def test_search_finds_marked_letter():
    found = pol_mod_separator_search(
        lang("(a|b)*a(a|b)*"), lang("b*"), dmax=1, nmax=1, union_bound=1
    )
    assert found == SeparatorCandidate(1, ("a",))


def test_search_exhausts_on_inseparable_pair():
    found = pol_mod_separator_search(
        lang("a*"), lang("(a|b)*b(a|b)*"), dmax=4, nmax=3, union_bound=2
    )
    assert found is None


def test_search_empty_left_language_uses_empty_union():
    found = pol_mod_separator_search(lang("0"), lang("a*"), dmax=3, nmax=2, union_bound=2)
    assert found == SeparatorCandidate(1, ())


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


# ---------------------------------------------------------------------------
# Direct iopti minimization


def test_block_values_for_parity():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})

    assert eval_regular(rho, block_language(A, 1)) == fs(0, 1)
    assert eval_regular(rho, block_language(A, 2)) == fs(0)
    assert brute_iopti_mod(rho, 2) == fs(0)


def test_brute_iopti_trivial_semiring():
    trivial = TableSemiring([[0]], [[0]], zero=0, one=0)
    rho = RatingMap(A, trivial, {"a": 0})
    assert brute_iopti_mod(rho, 1) == trivial.one


def test_brute_iopti_mod_three():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(3)), {"a": fs(1)})
    assert brute_iopti_mod(rho, 3) == fs(0)


def test_mod_iopti_bound_fixtures():
    parity = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})
    three = RatingMap(A, PowerSemiring(CyclicMonoid(3)), {"a": fs(1)})
    trivial = TableSemiring([[0]], [[0]], zero=0, one=0)
    flat = RatingMap(A, trivial, {"a": 0})
    assert mod_iopti_bound(parity) == 2
    assert mod_iopti_bound(three) == 3
    assert mod_iopti_bound(flat) == 1


def test_mod_iopti_bound_draws_on_the_values_budget():
    # The powers of {1} in 2^(Z/7Z) are the seven singletons.
    seven = RatingMap(A, PowerSemiring(CyclicMonoid(7)), {"a": fs(1)})
    assert mod_iopti_bound(seven, Budget(values=7)) == 7
    with pytest.raises(BudgetExceededError) as caught:
        mod_iopti_bound(seven, Budget(values=6))
    assert str(caught.value) == "omega power budget exceeded (limit 6)"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9).map(seeded_maps))
# The hundred fixed maps of `test_mod_iopti_equals_generic_iopti`, within
# a 60 s ceiling meant to catch an algorithmic regression.
@example(seeded_maps(7000, 100))
def test_brute_iopti_matches_mod_iopti(maps):
    started = time.perf_counter()
    for rho in maps:
        assert brute_iopti_mod(rho, mod_iopti_bound(rho)) == mod_iopti(rho)
    assert time.perf_counter() - started < 60


# ---------------------------------------------------------------------------
# Enumerated level-1 filter


def test_bpol_iopti_enumerated_trivial_semiring():
    rho = RatingMap(A, TableSemiring([[0]], [[0]], zero=0, one=0), {"a": 0})
    assert downset_elements(bpol_iopti_enumerated(rho, mod_cover_oracle())) == {0}
