"""Basis oracles: length-residue separation and epsilon-approximation values.

A basis oracle answers two questions about its language class: the
best value a rating map can give a class language containing the empty
word (iopti), and whether two regular languages are separable inside
the class. The length-residue class (Boolean combinations of "length
congruent to k mod m") is implemented in full; its iopti has a closed
formula and its separation reduces to arithmetic on eventually
periodic length sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import Budget, UnsupportedError
from .lang import Dfa, explore
from .rating import RatingMap
from .semiring import omega_power


@dataclass(frozen=True)
class LengthProfile:
    """Eventually periodic description of a regular language's length set.

    Lengths below the threshold are listed explicitly; from the
    threshold on, membership depends only on the residue mod period.
    """

    threshold: int
    period: int
    initial: frozenset
    residues: frozenset

    def accepts_length(self, n: int) -> bool:
        if n < self.threshold:
            return n in self.initial
        return n % self.period in self.residues


def length_profile(dfa: Dfa, budget: Budget = Budget()) -> LengthProfile:
    """Profile the set {|w| : w accepted} via the subset sequence.

    S_n is the set of states reachable by some length-n word; the
    sequence of subsets repeats, and a length is accepted exactly when
    its subset meets the accepting states. The subsets are the states
    of the subset automaton over one letter, so the `states` field
    bounds how many are kept: the period can be the lcm of the DFA's
    cycle lengths, far more than its states.
    """
    letter_indices = range(len(dfa.alphabet))

    def step(states, _):
        return frozenset(dfa.transitions[q][j] for q in states for j in letter_indices)

    start = frozenset({dfa.initial})
    sets, moves, _ = explore(start, (None,), step, budget, "states", "length profile state")
    threshold = moves[-1][0]
    period = len(sets) - threshold
    accepted = [bool(s & dfa.accepting) for s in sets]
    initial = frozenset(n for n in range(threshold) if accepted[n])
    residues = frozenset(n % period for n in range(threshold, threshold + period) if accepted[n])
    return LengthProfile(threshold, period, initial, residues)


def mod_separable(l1: Dfa, l2: Dfa, budget: Budget = Budget()) -> int | None:
    """The modulus of a union of length-residue classes that contains l1
    and avoids l2, or None when no such union exists.

    Such a separator sees only lengths, so the answer depends on the
    two length sets alone. Normalized to a common threshold t and
    period p, separation holds exactly when the tail residues are
    disjoint, no length below t is in both sets, and no length below t
    in one set is congruent mod p to a tail residue of the other; the
    classes of l1's lengths mod the smallest positive multiple of p
    that is >= t then form a separator, and that multiple is returned.
    It is not necessarily the least separating modulus: `a` against
    `aaa` gets 4, though lengths mod 3 separate them.

    No loop runs over p, the lcm of the two periods: by the Chinese
    remainder theorem the tails share a length exactly when a residue
    of each agrees mod the gcd of the periods, and a length n below t
    meets the other set's tail exactly when n itself passes that set's
    residue test.
    """
    if l1.alphabet != l2.alphabet:
        raise ValueError("separation inputs use different alphabets")
    first, second = length_profile(l1, budget), length_profile(l2, budget)
    g = gcd(first.period, second.period)
    if {r % g for r in first.residues} & {r % g for r in second.residues}:
        return None
    t = max(first.threshold, second.threshold)
    for n in range(t):
        in1, in2 = first.accepts_length(n), second.accepts_length(n)
        if in1 and (in2 or n % second.period in second.residues):
            return None
        if in2 and n % first.period in first.residues:
            return None
    p = lcm(first.period, second.period)
    return p * max(1, -(-t // p))


def mod_iopti(rho: RatingMap, budget: Budget = Budget()):
    """Best value of a length-residue language containing the empty word.

    Closed formula: omega-power of the summed letter images, plus the
    unit. The omega-power term is the image of (A^d)* for a suitable d,
    and adding the unit keeps the empty word's contribution explicit.
    The powers the omega-power steps through draw on the `values` field.
    """
    semiring = rho.semiring
    total = semiring.sum(rho.letter_image[a] for a in rho.alphabet)
    return semiring.add(omega_power(semiring, total, budget), semiring.one)


class BasisOracle:
    """Behavioral contract shared by every basis: `iopti` returns the
    basis-optimal value of a rating map, and `separates` the modulus of
    a separator, or None when no class language separates the inputs.
    The `iopti` value is multiplicatively idempotent (for length
    residues, omega + 1 is), and `engines.pol_imprint` relies on it."""

    def iopti(self, rho: RatingMap, budget: Budget = Budget()):
        raise NotImplementedError

    def separates(self, l1: Dfa, l2: Dfa, budget: Budget = Budget()) -> int | None:
        raise NotImplementedError


class ModOracle(BasisOracle):
    """Length-residue basis: closed-formula iopti, arithmetic separation."""

    def iopti(self, rho: RatingMap, budget: Budget = Budget()):
        return mod_iopti(rho, budget)

    def separates(self, l1: Dfa, l2: Dfa, budget: Budget = Budget()) -> int | None:
        return mod_separable(l1, l2, budget)


RESERVED_BASES = ("gr", "amod")


def mod_cover_oracle() -> BasisOracle:
    return ModOracle()


def oracle_for(name: str) -> BasisOracle:
    if name == "mod":
        return ModOracle()
    if name in RESERVED_BASES:
        raise UnsupportedError(f"basis {name!r} is reserved but not implemented")
    raise UnsupportedError(f"unknown basis {name!r}")
