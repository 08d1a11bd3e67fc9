"""Length-profile, separation, and iopti tests for the basis oracles."""

import random
import time
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhier.basis import (
    ModOracle,
    length_profile,
    mod_cover_oracle,
    mod_iopti,
    mod_separable,
    oracle_for,
)
from modhier.errors import Budget, BudgetExceededError, UnsupportedError
from modhier.lang import Dfa, disjoint
from modhier.rating import RatingMap
from modhier.semiring import PowerSemiring

from gen import A, AB, CyclicMonoid, TableSemiring, fs, lang, random_dfa, seeded_maps
from oracles import generic_iopti


# ---------------------------------------------------------------------------
# Length profiles


def test_length_profile_even_lengths():
    profile = length_profile(lang("(aa)*", A))
    assert (profile.threshold, profile.period) == (0, 2)
    assert profile.initial == fs()
    assert profile.residues == fs(0)


def test_length_profile_odd_lengths():
    assert length_profile(lang("a(aa)*", A)).residues == fs(1)


def test_length_profile_finite_language():
    profile = length_profile(lang("aa", A))
    assert profile.initial == fs(2)
    assert profile.residues == fs()
    assert profile.accepts_length(2)
    assert not profile.accepts_length(4)


def test_length_profile_cofinite_lengths():
    profile = length_profile(lang("a+", A))
    assert not profile.accepts_length(0)
    assert all(profile.accepts_length(n) for n in range(1, 10))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_length_profile_matches_subset_stepping(seed):
    dfa = random_dfa(random.Random(seed), AB)
    profile = length_profile(dfa)
    states = fs(dfa.initial)
    for n in range(16):
        expected = bool(states & dfa.accepting)
        assert profile.accepts_length(n) == expected
        states = frozenset(
            dfa.transitions[q][j] for q in states for j in range(len(dfa.alphabet))
        )


# ---------------------------------------------------------------------------
# Separation at level zero


def test_mod_separable_even_vs_odd():
    assert mod_separable(lang("(aa)*", A), lang("a(aa)*", A)) == 2


def test_mod_separable_same_lengths():
    assert mod_separable(lang("a*"), lang("b*")) is None


def test_mod_separable_colliding_multiples():
    # lengths 2,4,6,... vs 3,6,9,...: length 6 in both
    assert mod_separable(lang("aa(aa)*", A), lang("aaa(aaa)*", A)) is None


def test_mod_separable_finite_vs_periodic():
    assert mod_separable(lang("aa", A), lang("(aaaa)*", A)) == 4
    # The least multiple of the common period at or above the common
    # threshold, not the least separating modulus: mod 3 separates too.
    assert mod_separable(lang("a", A), lang("aaa", A)) == 4


def test_mod_separable_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        mod_separable(lang("a*", A), lang("a*", AB))


def accepted_residues(dfa, modulus, horizon):
    profile = length_profile(dfa)
    return {n % modulus for n in range(horizon) if profile.accepts_length(n)}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_mod_separable_is_symmetric_and_sound(seed):
    rng = random.Random(seed)
    l1 = random_dfa(rng, AB)
    l2 = random_dfa(rng, AB)
    d = mod_separable(l1, l2)
    assert (d is None) == (mod_separable(l2, l1) is None)
    if d is not None:
        assert disjoint(l1, l2)
        horizon = d + max(length_profile(l1).threshold, length_profile(l2).threshold)
        assert not (accepted_residues(l1, d, horizon) & accepted_residues(l2, d, horizon))


def lcm_separable(l1, l2):
    """The reference test: every residue mod the lcm of the two periods,
    one by one. Returns the separating modulus, or None."""
    first, second = length_profile(l1), length_profile(l2)
    t = max(first.threshold, second.threshold)
    p = lcm(first.period, second.period)
    init1 = {n for n in range(t) if first.accepts_length(n)}
    init2 = {n for n in range(t) if second.accepts_length(n)}
    res1 = {n % p for n in range(t, t + p) if first.accepts_length(n)}
    res2 = {n % p for n in range(t, t + p) if second.accepts_length(n)}
    if res1 & res2 or init1 & init2:
        return None
    if any(n % p in res2 for n in init1) or any(n % p in res1 for n in init2):
        return None
    return p * max(1, -(-t // p))


def raw_dfa(rng, alphabet, states):
    """A random complete DFA, not necessarily minimal, so periods and thresholds vary."""
    transitions = tuple(
        tuple(rng.randrange(states) for _ in alphabet) for _ in range(states)
    )
    accepting = frozenset(q for q in range(states) if rng.random() < 0.3)
    return Dfa(alphabet, transitions, rng.randrange(states), accepting)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_mod_separable_matches_the_lcm_enumeration(seed):
    rng = random.Random(seed)
    alphabet = rng.choice([A, AB])
    l1 = raw_dfa(rng, alphabet, rng.randint(1, 12))
    l2 = raw_dfa(rng, alphabet, rng.randint(1, 12))
    assert mod_separable(l1, l2) == lcm_separable(l1, l2)


def test_length_profile_draws_on_the_state_budget():
    cycle = Dfa(A, tuple(((q + 1) % 5,) for q in range(5)), 0, fs(0))
    assert length_profile(cycle, Budget(states=5)).period == 5
    with pytest.raises(BudgetExceededError, match="length profile state budget exceeded"):
        length_profile(cycle, Budget(states=4))
    # b^i a (A^c)* for the i-th cycle length c: 68 states, and a length
    # period of 3 * 4 * 5 * 7 * 11 * 13 * 17 = 1,021,020.
    cycles = [3, 4, 5, 7, 11, 13, 17]
    language = lang("|".join("b" * i + "a(" + "(a|b)" * c + ")*" for i, c in enumerate(cycles)))
    assert language.num_states == 68
    with pytest.raises(BudgetExceededError, match="length profile state budget exceeded"):
        mod_separable(language, lang("b*"))
    with pytest.raises(BudgetExceededError, match="length profile state budget exceeded"):
        mod_separable(lang("b*"), language, Budget(states=100))


# ---------------------------------------------------------------------------
# iopti values


def test_mod_iopti_parity():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})
    assert mod_iopti(rho) == fs(0)


def test_mod_iopti_omega_power_draws_on_the_values_budget():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})
    with pytest.raises(BudgetExceededError) as caught:
        mod_cover_oracle().iopti(rho, Budget(values=1))
    assert (caught.value.what, caught.value.limit) == ("omega power", 1)
    assert mod_cover_oracle().iopti(rho, Budget()) == mod_iopti(rho, Budget(values=2)) == fs(0)


def test_mod_iopti_mod_three():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(3)), {"a": fs(1)})
    assert mod_iopti(rho) == fs(0)


def test_mod_iopti_trivial_semiring():
    trivial = TableSemiring([[0]], [[0]], zero=0, one=0)
    rho = RatingMap(A, trivial, {"a": 0})
    assert mod_iopti(rho) == 0


def test_generic_iopti_parity():
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})
    assert generic_iopti(rho, mod_separable) == fs(0)


def test_generic_iopti_unit_images():
    semiring = PowerSemiring(CyclicMonoid(2))
    rho = RatingMap(AB, semiring, {"a": semiring.one, "b": semiring.one})
    assert generic_iopti(rho, mod_separable) == semiring.one


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9).map(seeded_maps))
# One hundred fixed maps, within a 60 s ceiling meant to catch an
# algorithmic regression.
@example(seeded_maps(7000, 100))
def test_mod_iopti_equals_generic_iopti(maps):
    started = time.perf_counter()
    for rho in maps:
        assert mod_iopti(rho) == generic_iopti(rho, mod_separable)
    assert time.perf_counter() - started < 60


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9).map(seeded_maps))
@example(seeded_maps(7000, 100))
def test_mod_iopti_is_idempotent(maps):
    """omega + 1 squares to itself, so `engines.pol_imprint` passes its
    basis pair to the product closure as a part already closed."""
    for rho in maps:
        value = mod_iopti(rho)
        assert rho.semiring.mul(value, value) == value


# ---------------------------------------------------------------------------
# Oracle wiring


def test_mod_cover_oracle_roundtrip():
    oracle = mod_cover_oracle()
    rho = RatingMap(A, PowerSemiring(CyclicMonoid(2)), {"a": fs(1)})
    assert oracle.iopti(rho) == fs(0)
    assert oracle.separates(lang("(aa)*", A), lang("a(aa)*", A)) == 2
    assert isinstance(oracle, ModOracle)


def test_oracle_for_names():
    assert isinstance(oracle_for("mod"), ModOracle)
    for name in ("gr", "amod", "xyz"):
        with pytest.raises(UnsupportedError):
            oracle_for(name)
