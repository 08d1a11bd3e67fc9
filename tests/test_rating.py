"""Evaluation and auxiliary-map tests for rating maps."""

import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modhier.errors import Budget, BudgetExceededError
from modhier.lang import disjoint, transition_monoid
from modhier.rating import (
    RatingMap,
    aux_bpol_map,
    aux_pbpol_map,
    canonical_covering_map,
)
from modhier.semiring import AntichainSemiring, PairSpace, PowerSemiring

from gen import (
    A,
    AB,
    CyclicMonoid,
    eval_word,
    fs,
    image_of_word,
    lang,
    random_dfa,
    random_rating_map,
    random_regex,
)
from oracles import accepts, eval_regular, value_automaton


@pytest.fixture
def parity():
    """Rating map counting length parity: a maps to {1} in 2^(Z/2Z)."""
    return RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})


# ---------------------------------------------------------------------------
# Word and language evaluation


def test_eval_word_parity(parity):
    assert eval_word(parity, "aa") == fs(0)
    assert eval_word(parity, "") == fs(0)
    assert eval_word(parity, "aaa") == fs(1)


def test_eval_regular_parity(parity):
    assert eval_regular(parity, lang("(aa)*", A)) == fs(0)
    assert eval_regular(parity, lang("0", A)) == fs()
    assert eval_regular(parity, lang("a*", A)) == fs(0, 1)


def test_eval_regular_checks_alphabet(parity):
    with pytest.raises(ValueError):
        eval_regular(parity, lang("a*", AB))


def test_eval_regular_budget(parity):
    with pytest.raises(BudgetExceededError):
        eval_regular(parity, lang("(aa)*", A), Budget(values=1))


def test_value_automaton_parity(parity):
    values, transitions = value_automaton(parity)
    assert values == [fs(0), fs(1)]
    assert transitions == ((1,), (0,))
    assert set(value_automaton(parity)[0]) == {fs(0), fs(1)}


def test_rating_map_requires_all_letters():
    with pytest.raises(ValueError):
        RatingMap(AB, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})


# ---------------------------------------------------------------------------
# Canonical covering map


def test_canonical_covering_map_images():
    morphism = transition_monoid([lang("(aa)*", A)])
    rho = canonical_covering_map(morphism)
    assert rho.letter_image["a"] == fs(morphism.letter_image["a"])
    assert eval_word(rho, "aa") == fs(image_of_word(morphism, "aa"))
    assert eval_regular(rho, lang("a*", A)) == fs(0, 1)


def test_canonical_covering_map_reaches_all_elements():
    morphism = transition_monoid([lang("(ab)*")])
    rho = canonical_covering_map(morphism)
    assert set(value_automaton(rho)[0]) == {fs(m) for m in morphism.elements()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_covering_map_detects_intersection(seed):
    targets = [lang("(ab)*"), lang("(a|b)*a(a|b)*")]
    morphism = transition_monoid(targets)
    rho = canonical_covering_map(morphism)
    rng = random.Random(seed)
    k = random_dfa(rng, AB)
    image = eval_regular(rho, k)
    for i, target in enumerate(targets):
        assert bool(image & morphism.accept_sets[i]) == (not disjoint(k, target))


# ---------------------------------------------------------------------------
# Auxiliary maps


def test_aux_bpol_map_full_s(parity):
    full = [fs(), fs(0), fs(1), fs(0, 1)]
    eta = aux_bpol_map(parity, full, PowerSemiring(parity.semiring))
    assert eta.letter_image["a"] == {(fs(1), frozenset(full))}
    assert eta.semiring.one == {(fs(0), frozenset({fs(0)}))}


def test_aux_bpol_map_empty_s(parity):
    eta = aux_bpol_map(parity, [], PowerSemiring(parity.semiring))
    assert eta.letter_image["a"] == {(fs(1), frozenset())}


def test_aux_bpol_map_antichain_inner(parity):
    full = [fs(), fs(0), fs(1), fs(0, 1)]
    inner = AntichainSemiring(parity.semiring)
    eta = aux_bpol_map(parity, full, inner=inner)
    # maxima of the four products: the top subset alone
    assert eta.letter_image["a"] == {(fs(1), frozenset({fs(0, 1)}))}


def test_aux_pbpol_map_fixtures():
    morphism = transition_monoid([lang("(aa)*", A)])
    rho = canonical_covering_map(morphism)
    inner = PowerSemiring(PairSpace(morphism, rho.semiring))
    empty = aux_pbpol_map(morphism, rho, [], inner)
    assert empty.letter_image["a"] == {(fs(1), frozenset())}
    unit_pair = (morphism.unit, rho.semiring.one)
    eta = aux_pbpol_map(morphism, rho, [unit_pair], inner)
    assert eta.letter_image["a"] == {(fs(1), frozenset({(1, fs(1))}))}
    assert eta.semiring.one == {(fs(0), frozenset({(0, fs(0))}))}


# ---------------------------------------------------------------------------
# Morphism and linearity properties


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9), st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8))
def test_eval_word_is_a_morphism(seed, u, v):
    rho = random_rating_map(random.Random(seed), AB)
    left = eval_word(rho, u + v)
    right = rho.semiring.mul(eval_word(rho, u), eval_word(rho, v))
    assert left == right


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_regular_is_additive_and_multiplicative(seed):
    rng = random.Random(seed)
    rho = random_rating_map(rng, AB)
    t1 = random_regex(rng, AB)
    t2 = random_regex(rng, AB)
    k1, k2 = lang(t1), lang(t2)
    semiring = rho.semiring
    assert eval_regular(rho, lang(f"({t1})|({t2})")) == semiring.add(
        eval_regular(rho, k1), eval_regular(rho, k2)
    )
    assert eval_regular(rho, lang(f"({t1})({t2})")) == semiring.mul(
        eval_regular(rho, k1), eval_regular(rho, k2)
    )


def saturation_depth(rho, dfa):
    """BFS depth at which the (state, value) pair set stabilizes."""
    frontier = {(dfa.initial, rho.semiring.one)}
    seen = set(frontier)
    depth = 0
    while frontier:
        nxt = set()
        for state, value in frontier:
            for j, letter in enumerate(rho.alphabet):
                pair = (dfa.transitions[state][j], rho.semiring.mul(value, rho.letter_image[letter]))
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        frontier = nxt
        if frontier:
            depth += 1
    return depth


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_regular_matches_bounded_enumeration(seed):
    rng = random.Random(seed)
    rho = random_rating_map(rng, AB, max_monoid=3)
    dfa = random_dfa(rng, AB, max_states=4)
    bound = saturation_depth(rho, dfa)
    assume(bound <= 9)
    total = rho.semiring.zero
    for length in range(bound + 1):
        for letters in product(rho.alphabet.letters, repeat=length):
            word = "".join(letters)
            if accepts(dfa, word):
                total = rho.semiring.add(total, eval_word(rho, word))
    assert total == eval_regular(rho, dfa)
