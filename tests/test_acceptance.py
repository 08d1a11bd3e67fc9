"""Acceptance suite: one test per advertised guarantee.

Each guarantee gets exactly one test function, so a verbose run shows
one pass/fail line per criterion. The random suites are seeded and
deterministic; timing limits are generous ceilings meant to catch
algorithmic regressions, not to benchmark.
"""

import random
import time
from itertools import product

from modhier.basis import mod_iopti, mod_separable
from modhier.cli import run
from modhier.decide import LEVELS, member, separable
from modhier.engines import (
    bpol_iopti,
    bpol_opti,
    admissible_totals,
    pbpol_iopti,
    pbpol_pointed_imprint,
    pol_imprint,
)
from modhier.lang import (
    disjoint,
    included,
    transition_monoid,
)
from modhier.rating import aux_bpol_map, canonical_covering_map
from modhier.refcheck import candidate_language, pol_mod_separator_search
from modhier.semiring import AntichainSemiring

from io import StringIO

from gen import A, AB, ORACLE, fs, lang, random_dfa, random_rating_map, unpointed
from oracles import brute_iopti_mod, generic_iopti, mod_iopti_bound
from test_engines import assert_pbpol_rules_stable, assert_pol_rules_stable, imprint_covers


def random_maps(count=100):
    return [random_rating_map(random.Random(7000 + i), AB) for i in range(count)]


def random_pairs(count, size_cap=8, seed=4000):
    """Deterministic pairs of small random languages with a small monoid."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        l1 = random_dfa(rng, AB)
        l2 = random_dfa(rng, AB)
        if transition_monoid([l1, l2]).size <= size_cap:
            pairs.append((l1, l2))
    return pairs


def test_criterion_01_closed_form_iopti_matches_oracle_backed():
    """The closed-form basis approximation agrees with the generic one
    on one hundred random rating maps into small power semirings."""
    started = time.perf_counter()
    for rho in random_maps():
        assert mod_iopti(rho) == generic_iopti(rho, mod_separable)
    assert time.perf_counter() - started < 60


def test_criterion_02_closed_form_iopti_matches_brute_minimum():
    """The same maps give the same value as the direct minimum over
    block languages, with the modulus bound computed per map."""
    started = time.perf_counter()
    for rho in random_maps():
        assert brute_iopti_mod(rho, mod_iopti_bound(rho)) == mod_iopti(rho)
    assert time.perf_counter() - started < 60


def test_criterion_03_unary_parity_fixtures_for_every_engine():
    """All engines produce the hand-computed imprints for even-length
    words over a single letter."""
    morphism = transition_monoid([lang("(aa)*", A)])
    rho = canonical_covering_map(morphism)
    pol = pol_imprint(morphism, rho, ORACLE)
    assert pol.maximal == fs((0, fs(0)), (1, fs(1)))
    iopti = bpol_iopti(rho, ORACLE)
    assert iopti.maximal == fs(fs(0))
    opti = bpol_opti(rho, iopti)
    assert opti.maximal == fs(fs(0), fs(1))
    pointed = pbpol_iopti(morphism, rho, ORACLE)
    assert pointed.maximal == fs((0, fs(0)))
    full = pbpol_pointed_imprint(morphism, rho, pointed)
    assert full.maximal == fs((0, fs(0)), (1, fs(1)))


def test_criterion_04_verdict_chain_flips_at_level_one():
    """Separating a* from words containing b fails through level 1/2
    and succeeds from level 1 on, each level answering quickly."""
    l1, l2 = lang("a*"), lang("(a|b)*b(a|b)*")
    expected = {"0": False, "1/2": False, "1": True, "3/2": True}
    for level, answer in expected.items():
        started = time.perf_counter()
        assert separable(level, l1, l2, ORACLE).answer == answer, level
        assert time.perf_counter() - started < 10, level


def test_criterion_05_random_pairs_monotone_and_sound():
    """On two hundred random pairs, separability only switches from no
    to yes as the level rises, and intersecting pairs never separate."""
    for l1, l2 in random_pairs(200):
        answers = [separable(level, l1, l2, ORACLE).answer for level in LEVELS]
        for low, high in zip(answers, answers[1:]):
            assert (not low) or high
        if not disjoint(l1, l2):
            assert not any(answers)


def test_criterion_06_imprint_inclusion_chain():
    """Imprints shrink as the level rises: the level-3/2 imprint sits
    inside the level-1 imprint, which sits inside the level-1/2 one."""
    for l1, l2 in random_pairs(30, size_cap=6, seed=5000):
        morphism = transition_monoid([l1, l2])
        rho = canonical_covering_map(morphism)
        pol = unpointed(pol_imprint(morphism, rho, ORACLE))
        bpol = bpol_opti(rho, bpol_iopti(rho, ORACLE))
        pbpol = unpointed(
            pbpol_pointed_imprint(morphism, rho, pbpol_iopti(morphism, rho, ORACLE))
        )
        assert imprint_covers(pol, bpol)
        assert imprint_covers(bpol, pbpol)


def test_criterion_07_separator_search_is_sound():
    """Whenever the bounded search returns a candidate, the candidate
    verifies exactly and the level-1/2 verdict is positive."""
    fixtures = [
        (lang("(aa)*", A), lang("a(aa)*", A)),
        (lang("(a|b)*a(a|b)*"), lang("b*")),
    ]
    hits = 0
    for l1, l2 in fixtures + random_pairs(60, seed=6000):
        found = pol_mod_separator_search(l1, l2, dmax=2, nmax=2, union_bound=2)
        if found is None:
            continue
        hits += 1
        denoted = candidate_language(found, l1.alphabet)
        assert included(l1, denoted)
        assert disjoint(denoted, l2)
        assert separable("1/2", l1, l2, ORACLE).answer
    assert hits >= len(fixtures)


def test_criterion_08_short_words_are_members_at_level_one():
    """Every singleton language of a word of length at most three over
    two letters is a member at levels 1 and 3/2 (fifteen words, the
    empty one included)."""
    words = ["".join(w) for n in range(4) for w in product("ab", repeat=n)]
    assert len(words) == 15
    for word in words:
        language = lang(word if word else "e")
        assert member("1", language, ORACLE).answer, word
        assert member("3/2", language, ORACLE).answer, word


def assert_bpol_filter_stable(rho, oracle, result):
    """One more filtering round keeps every surviving value."""
    semiring = rho.semiring
    inner = AntichainSemiring(semiring)
    eta = aux_bpol_map(rho, result.maximal, inner=inner)
    valid = admissible_totals(oracle.iopti(eta), {})
    for m in result.maximal:
        assert any(semiring.leq(m, t) for t in valid)


def test_criterion_09_closure_reapplication_adds_nothing():
    """Feeding each engine's result back through its own rules changes
    nothing, on fixtures and on seeded random instances."""
    instances = [[lang("(aa)*", A)], [lang("a*"), lang("(a|b)*b(a|b)*")]]
    rng = random.Random(9000)
    while len(instances) < 8:
        dfas = [random_dfa(rng, AB, max_states=4)]
        if transition_monoid(dfas).size <= 6:
            instances.append(dfas)
    for dfas in instances:
        morphism = transition_monoid(dfas)
        rho = canonical_covering_map(morphism)
        assert_pol_rules_stable(morphism, rho, ORACLE, pol_imprint(morphism, rho, ORACLE))
        iopti = bpol_iopti(rho, ORACLE)
        assert_bpol_filter_stable(rho, ORACLE, iopti)
        opti = bpol_opti(rho, iopti)
        for x in opti.maximal:
            for y in opti.maximal:
                assert rho.semiring.mul(x, y) in opti
        assert_pbpol_rules_stable(morphism, rho, ORACLE, pbpol_iopti(morphism, rho, ORACLE))


def test_criterion_10_default_budgets_suffice_and_overflow_is_structured():
    """The level-3/2 queries of this suite complete under default
    budgets, and a starved budget produces the dedicated exit status
    with no answer line rather than a wrong answer."""
    for l1, l2 in random_pairs(20, seed=10_000):
        separable("3/2", l1, l2, ORACLE)
    out, err = StringIO(), StringIO()
    code = run(
        [
            "separate", "--level", "3/2", "--alphabet", "ab",
            "a*", "(a|b)*b(a|b)*", "--max-antichain", "1",
        ],
        out=out,
        err=err,
    )
    assert code == 3
    assert "RESULT" not in out.getvalue()
    assert "budget" in err.getvalue()
    out2, err2 = StringIO(), StringIO()
    code2 = run(
        ["separate", "--level", "3/2", "--alphabet", "ab", "a*", "b*",
         "--max-states", "1"],
        out=out2,
        err=err2,
    )
    assert code2 == 3
    assert "RESULT" not in out2.getvalue()
