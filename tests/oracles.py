"""Test-only references: routes to what the engines and the basis compute
that no query takes, and checkers that re-apply an engine's rules to
its result.

Exact language operations on DFAs, every accepted word up to a length
by full layers, the exact sum of a rating map over a regular language,
a direct minimum over the block languages (A^d)* for the basis
approximation, the basis approximation from basis separation alone,
the level-1 filter over an enumerated carrier with its admissible
totals summed as values, and the walk of every element of a downset
(within the antichain budget).
Tests cross-check the package against these; the package itself keeps
only what a query runs.

The checkers, one per level, hold an engine's result to the rules
that produced it: `assert_pol_rules_stable` (level 1/2: the seeds and
the product of any two maxima), `assert_bpol_filter_stable` (level 1:
one more filtering round keeps every maximum) and
`assert_pbpol_rules_stable` (level 3/2: the basis value absorbed, the
idempotent rule on every element below its maxima, the products),
with the product step `assert_products_inside` over all pairs of
maxima; `imprint_covers` compares the imprints of two levels. They
run no code of `modhier.engines`, but share with the engines the
auxiliary maps of `modhier.rating`, the basis `iopti` of the oracle
they are given, and `AntichainSemiring` as those maps' inner sets, so
a fault in any of these can pass them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from modhier.errors import Budget
from modhier.lang import Alphabet, Dfa, compile_regex, disjoint, explore, included
from modhier.rating import RatingMap, aux_bpol_map, aux_pbpol_map
from modhier.refcheck import SeparatorCandidate, candidate_language
from modhier.semiring import (
    AntichainSemiring,
    DownSet,
    PairSpace,
    PowerSemiring,
    antichain_of,
    power_cycle,
)


def accepts(dfa: Dfa, word: str) -> bool:
    q = dfa.initial
    for a in word:
        q = dfa.transitions[q][dfa.alphabet.index(a)]
    return q in dfa.accepting


def short_words_by_layers(dfa: Dfa, max_len: int) -> list:
    """Accepted words of length <= max_len, ordered by length then letters,
    found by extending every word of each length by every letter."""
    layer, words = [("", dfa.initial)], []
    for length in range(max_len + 1):
        words += [w for w, q in layer if q in dfa.accepting]
        if length < max_len:
            layer = [(w + a, dfa.transitions[q][l]) for w, q in layer for l, a in enumerate(dfa.alphabet)]
    return words


def is_empty(x: Dfa) -> bool:
    return disjoint(x, x)


def equivalent(x: Dfa, y: Dfa) -> bool:
    return included(x, y) and included(y, x)


def eval_regular(rho: RatingMap, dfa: Dfa, budget: Budget = Budget()):
    """Sum of rho over a regular language.

    Saturates the reachable (DFA state, semiring value) pairs and adds
    up the values seen at accepting states. Idempotent addition makes
    the sum over distinct pairs equal the sum over all words. No
    antichain pruning here: the result must be the exact sum. The pairs
    draw on the `values` budget.
    """
    if dfa.alphabet != rho.alphabet:
        raise ValueError("language and rating map use different alphabets")
    semiring = rho.semiring
    letters = [(j, rho.letter_image[a]) for j, a in enumerate(dfa.alphabet)]

    def step(pair, letter):
        (state, value), (j, image) = pair, letter
        return dfa.transitions[state][j], semiring.mul(value, image)

    start = (dfa.initial, semiring.one)
    pairs, _, _ = explore(start, letters, step, budget, "values", "evaluation pair")
    return semiring.sum(value for state, value in pairs if state in dfa.accepting)


def value_automaton(rho: RatingMap, budget: Budget = Budget()):
    """Reachable word images of rho with their right-multiplication graph.

    Returns (values, transitions): values[0] is the unit, and
    transitions[i][j] is the index of values[i] * rho(letter j). A DFA
    over this graph with accepting set {i} recognizes the preimage of
    values[i] under the word-level map.
    """
    semiring = rho.semiring
    letters = [rho.letter_image[a] for a in rho.alphabet]
    values, transitions, _ = explore(semiring.one, letters, semiring.mul, budget, "values")
    return values, tuple(transitions)


def block_language(alphabet: Alphabet, modulus: int, budget: Budget = Budget()) -> Dfa:
    """The language (A^d)* of lengths divisible by the modulus: the
    separator candidate whose one marker word is empty."""
    return candidate_language(SeparatorCandidate(modulus, ("",)), alphabet, budget)


def mod_iopti_bound(rho: RatingMap, budget: Budget = Budget()) -> int:
    """Modulus whose block language realizes the basis approximation.

    The exponent at which the powers of the summed letter image become
    idempotent (`semiring.power_cycle`, within the `values` budget).
    """
    s = rho.semiring.sum(rho.letter_image[a] for a in rho.alphabet)
    return power_cycle(rho.semiring, s, budget)[1]


def brute_iopti_mod(rho: RatingMap, dmax: int):
    """Basis approximation by direct minimization over block languages.

    Evaluates rho on (A^d)* for every d <= dmax and returns the unique
    order-minimal value. Every length-residue language containing the
    empty word contains a block language, so once dmax reaches
    mod_iopti_bound(rho) the minimum is the true approximation.
    """
    semiring = rho.semiring
    values = []
    for d in range(1, dmax + 1):
        block = block_language(rho.alphabet, d)
        values.append(eval_regular(rho, block))
    for value in values:
        if all(semiring.leq(value, other) for other in values):
            return value
    raise ValueError("no order-minimal block value below the given bound")


def generic_iopti(rho: RatingMap, separates, budget: Budget = Budget()):
    """The basis approximation from basis separation alone.

    Sums every reachable word image r whose preimage language is not
    separable from {empty word} by the basis; unreachable values have
    empty preimages and never contribute. Agrees with any closed
    formula for the same basis.
    """
    values, transitions = value_automaton(rho, budget)
    eps = compile_regex((("e", None),), rho.alphabet, budget)
    semiring = rho.semiring
    total = semiring.zero
    for i, value in enumerate(values):
        preimage = Dfa(rho.alphabet, transitions, 0, frozenset({i}))
        if separates(eps, preimage, budget) is None:
            total = semiring.add(total, value)
    return total


def admissible_totals_on_values(semiring, pairs) -> frozenset:
    """The totals `engines.admissible_totals` keeps, summed as values of
    any semiring, with no masks and no closure kept between calls.

    The sums of the values r are found by adding each distinct value to
    every sum found before it, and itself. A sum t counts when the
    values r <= t of the pairs (r, U) with some v >= t in U sum to t.
    """
    pairs = list(pairs)
    sums: set = set()
    for r in {r for r, _ in pairs}:
        sums |= {semiring.add(r, s) for s in sums} | {r}
    leq = semiring.leq
    valid = set()
    for t in sums:
        below = [r for r, u in pairs if leq(r, t) and any(leq(t, v) for v in u)]
        if below and semiring.sum(below) == t:
            valid.add(t)
    return frozenset(valid)


def bpol_iopti_enumerated(rho: RatingMap, oracle, budget: Budget = Budget()):
    """Level-1 basis value by the greatest-fixpoint filter over an enumerated carrier.

    The same filter as `engines.bpol_iopti`, but on explicit value sets
    with exact inner sets in the auxiliary map, so it needs no meets
    and no antichain pruning: the differential oracle for that engine.
    Its totals come from `admissible_totals_on_values`, which forms each
    round's sums anew as values of the semiring: no code of the
    engine's sums on masks runs, so it can share no bug with them.
    The carrier is materialized as a downset, within the antichain budget.
    """
    semiring = rho.semiring
    inner = PowerSemiring(semiring)
    current = set(downset_elements(DownSet(semiring, frozenset({semiring.top()})), budget))
    for iterations in budget.rounds():
        eta = aux_bpol_map(rho, frozenset(current), inner)
        valid = admissible_totals_on_values(semiring, oracle.iopti(eta, budget))
        survivors = {s for s in current if any(semiring.leq(s, t) for t in valid)}
        if survivors == current:
            return DownSet(semiring, antichain_of(semiring, current), iterations)
        current = survivors


def elements_below(space, x) -> Iterator:
    """Every element of the space below x, x included.

    The subsets of x in a power semiring, the pairs (s, v) with v below
    r for x = (s, r) in a pair space, and otherwise the elements of an
    enumerated carrier that lie below x.
    """
    if isinstance(space, PowerSemiring):
        base = sorted(x, key=repr)
        return (frozenset(c) for k in range(len(base) + 1) for c in combinations(base, k))
    if isinstance(space, PairSpace):
        s, r = x
        return ((s, v) for v in elements_below(space.semiring, r))
    return (r for r in space.elements() if space.leq(r, x))


def downset_elements(downset: DownSet, budget: Budget = Budget()) -> frozenset:
    """Every element of the downset, gathered within the antichain budget."""
    out: set = set()
    for m in downset.maximal:
        for x in elements_below(downset.space, m):
            out.add(x)
            if len(out) > budget.antichain:
                raise budget.exceeded("antichain", "downset materialization")
    return frozenset(out)




def imprint_covers(big: DownSet, small: DownSet) -> bool:
    """Does big's downset contain small's (comparing value antichains)?"""
    semiring = big.space
    return all(any(semiring.leq(s, b) for b in big.maximal) for s in small.maximal)


def assert_products_inside(downset: DownSet) -> None:
    """The product of any two maxima lies in the downset: it is closed
    under the product. All pairs, not the engines' closure by generators."""
    space = downset.space
    for x in downset.maximal:
        for y in downset.maximal:
            assert space.mult(x, y) in downset


def assert_pol_rules_stable(morphism, rho: RatingMap, oracle, result: DownSet) -> None:
    """Level 1/2: the imprint holds each letter's pair, (1, one) and
    (1, iopti(rho)), and is closed under the product."""
    for letter in rho.alphabet:
        assert (morphism.letter_image[letter], rho.letter_image[letter]) in result
    assert (morphism.unit, rho.semiring.one) in result
    assert (morphism.unit, oracle.iopti(rho)) in result
    assert_products_inside(result)


def assert_bpol_filter_stable(rho: RatingMap, oracle, result: DownSet) -> None:
    """Level 1: one more filtering round keeps every maximum, with the
    admissible totals summed as values (`admissible_totals_on_values`)."""
    semiring = rho.semiring
    eta = aux_bpol_map(rho, result.maximal, AntichainSemiring(semiring))
    valid = admissible_totals_on_values(semiring, oracle.iopti(eta))
    for m in result.maximal:
        assert any(semiring.leq(m, t) for t in valid)


def assert_pbpol_rules_stable(morphism, rho: RatingMap, oracle, result: DownSet) -> None:
    """Level 3/2: the result holds every pair of the basis value of its
    auxiliary map, the idempotent rule's (e, f(1 + r)f) for each
    idempotent (e, f) below those pairs, and is closed under the product."""
    space, semiring = result.space, rho.semiring
    eta = aux_pbpol_map(morphism, rho, result.maximal, AntichainSemiring(space))
    for r, t_value in oracle.iopti(eta):
        one_r = semiring.add(semiring.one, r)
        for m in t_value:
            assert m in result
            for candidate in elements_below(space, m):
                if space.mult(candidate, candidate) == candidate:
                    e, f = candidate
                    assert (e, semiring.mul(semiring.mul(f, one_r), f)) in result
    assert_products_inside(result)
