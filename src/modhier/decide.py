"""Verdicts for separation, covering, and membership queries.

The three public operations reduce to each other: membership of L is
separability of L from its complement, and separability of L1 from L2
above level zero is coverability of L1 against the single constraint
L2. Coverability itself is read off the imprints computed by the
fixpoint engines: a query is not coverable exactly when the imprint
contains an obstruction meeting the accepting sets of every input
language at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .basis import BasisOracle
from .engines import (
    bpol_iopti,
    bpol_opti,
    pbpol_iopti,
    pbpol_pointed_imprint,
    pol_imprint,
)
from .errors import Budget, InputError, UnsupportedError
from .lang import Dfa, complement, transition_monoid
from .rating import canonical_covering_map
from .refcheck import pol_mod_separator_search
from .semiring import DownSet

LEVELS = ("0", "1/2", "1", "3/2")
COVER_LEVELS = ("1/2", "1", "3/2")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one query.

    `witness`, when present, is independently checkable: a modulus for
    level-zero separation, a blocking imprint element for negative
    covering answers, or an explicit separator candidate for positive
    level-1/2 answers with one constraint when the bounded search finds
    one. `imprint` is the (morphism, imprint) pair the answer was read
    from, absent at level zero; through it a verdict keeps the
    imprint's pair space and the products that space keeps. An
    `imprint` query (see `imprinted`) has no answer. The query's
    command and level are the caller's; a verdict holds only what was
    found.
    """

    answer: Optional[bool]
    witness: Optional[dict] = None
    stats: Optional[dict] = None
    imprint: Optional[tuple] = field(default=None, compare=False, repr=False)


def _check_level(level: str) -> None:
    if level not in LEVELS:
        raise InputError(f"unknown level {level!r}; expected one of {', '.join(LEVELS)}")


def check_imprint_level(level: str) -> None:
    """Refuse a level below 1/2, where imprints are not defined."""
    _check_level(level)
    if level not in COVER_LEVELS:
        raise UnsupportedError(f"imprints are not defined at level {level}")


def level_imprint(level: str, dfas: list[Dfa], oracle: BasisOracle, budget: Budget = Budget()):
    """The optimal imprint of the languages at a level, by that level's engines:
    the one place that maps a level to its engines.

    Returns (morphism, imprint): the transition monoid of the
    languages and the imprint of their canonical covering map. The
    imprint's `passes` are the iterations `STATS` reports: the
    generations of the level-1/2 closure, or at levels 1 and 3/2 the
    fixpoint's rounds plus the generations of the closure that
    completes the imprint. Imprints start at level 1/2.
    """
    check_imprint_level(level)
    morphism = transition_monoid(dfas, budget)
    rho = canonical_covering_map(morphism)
    if level == "1/2":
        return morphism, pol_imprint(morphism, rho, oracle, budget)
    if level == "1":
        iopti = bpol_iopti(rho, oracle, budget)
        imprint = bpol_opti(rho, iopti, budget)
    else:
        iopti = pbpol_iopti(morphism, rho, oracle, budget)
        imprint = pbpol_pointed_imprint(morphism, rho, iopti, budget)
    return morphism, replace(imprint, passes=iopti.passes + imprint.passes)


def _imprint_stats(started: float, morphism, imprint: DownSet) -> dict:
    """What `STATS` reports for a query read off an imprint, timed from `started`."""
    return {
        "monoid": morphism.size,
        "iterations": imprint.passes,
        "antichain": len(imprint.maximal),
        "ms": round((time.perf_counter() - started) * 1000, 3),
    }


def imprinted(
    level: str, dfas: list[Dfa], oracle: BasisOracle, budget: Budget = Budget()
) -> Verdict:
    """The imprint of the languages at a level, as a verdict with no answer."""
    started = time.perf_counter()
    morphism, imprint = level_imprint(level, dfas, oracle, budget)
    stats = _imprint_stats(started, morphism, imprint)
    return Verdict(None, None, stats, (morphism, imprint))


def maximal_in_order(imprint: DownSet) -> list:
    """The imprint's maximal elements as (monoid element, value) cells, in
    the order scans and listings use; the element is None in every cell
    of an imprint that is not pointed."""
    cells = imprint.maximal if imprint.pointed else [(None, t) for t in imprint.maximal]
    return sorted(cells, key=lambda cell: (cell[0], tuple(sorted(cell[1]))))


def _blocking(imprint: DownSet, accept_sets):
    """Least imprint cell (s, t) that meets every constraint set.

    A value t meeting the accepting set of every constraint, attached
    to something the target accepts, witnesses an uncoverable query:
    in a pointed cell the monoid element s is accepted by the target,
    in a cell of a plain imprint (s None) t meets the target's
    accepting set. It suffices to scan maximal elements: the order
    fixes s and grows t, and the blocking condition survives growth.
    """
    target, *rest = accept_sets
    for s, t in maximal_in_order(imprint):
        if (t & target if s is None else s in target) and all(t & f for f in rest):
            return s, t
    return None


def coverable(
    level: str,
    target: Dfa,
    constraints: list[Dfa],
    oracle: BasisOracle,
    budget: Budget = Budget(),
    want_witness: bool = False,
) -> Verdict:
    """Decide whether some partition of A* separates the target from
    each constraint, with pieces taken at the given level.

    The target is coverable iff no imprint element is accepted by it
    while meeting every constraint; the negative witness is that
    element. Covering below level 1/2 is not defined for this basis.
    A positive level-1/2 answer against one constraint asks `refcheck`
    for a separator witness: this function decides only when to ask.
    """
    _check_level(level)
    if level not in COVER_LEVELS:
        raise UnsupportedError(f"covering is not supported at level {level}")
    if not constraints:
        raise InputError("covering needs at least one constraint language")
    if any(c.alphabet != target.alphabet for c in constraints):
        raise InputError("covering inputs use different alphabets")

    started = time.perf_counter()
    morphism, imprint = level_imprint(level, [target] + list(constraints), oracle, budget)
    blocking = _blocking(imprint, morphism.accept_sets)
    answer = blocking is None
    witness = None
    if want_witness and blocking is not None:
        s, t = blocking
        pointer = {} if s is None else {"element": s, "word": morphism.word_for[s]}
        witness = {"blocking": {**pointer, "image": sorted(t)}}

    if want_witness and answer and level == "1/2" and len(constraints) == 1:
        found = pol_mod_separator_search(target, constraints[0], budget=budget)
        if found is not None:
            witness = {
                "separator": {"modulus": found.modulus, "markers": list(found.markers)}
            }

    stats = _imprint_stats(started, morphism, imprint)
    return Verdict(answer, witness, stats, (morphism, imprint))


def separable(
    level: str,
    l1: Dfa,
    l2: Dfa,
    oracle: BasisOracle,
    budget: Budget = Budget(),
    want_witness: bool = False,
) -> Verdict:
    """Decide whether some level language contains l1 and avoids l2."""
    _check_level(level)
    if l1.alphabet != l2.alphabet:
        raise InputError("separation inputs use different alphabets")
    if level == "0":
        started = time.perf_counter()
        modulus = oracle.separates(l1, l2, budget)
        witness = {"modulus": modulus} if want_witness and modulus is not None else None
        stats = {"ms": round((time.perf_counter() - started) * 1000, 3)}
        return Verdict(modulus is not None, witness, stats)
    return coverable(level, l1, [l2], oracle, budget, want_witness)


def member(
    level: str,
    language: Dfa,
    oracle: BasisOracle,
    budget: Budget = Budget(),
    want_witness: bool = False,
) -> Verdict:
    """Decide whether the language itself lies at the given level.

    A regular language is a level language exactly when it is separable
    from its complement (the separator then equals the language).
    """
    return separable(level, language, complement(language), oracle, budget, want_witness)
