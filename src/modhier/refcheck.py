"""The bounded search for level-1/2 separator witnesses.

Separators are sought among unions of marked products of
length-residue blocks (`SeparatorCandidate`), each written as regex
text for `parse_regex`, and verified by exact inclusion and
disjointness. Verdict assembly runs the search for the best-effort
witness of `--witness`; a hit certifies separability at level 1/2 by a
route independent of the engines. The search's whole policy is here:
its bounds DMAX, NMAX and UNION_BOUND, the `antichain` cap on the
candidates it tries, and no witness on an overrun.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .errors import Budget, BudgetExceededError
from .lang import Alphabet, Dfa, compile_regex, disjoint, included, iter_short_words, parse_regex


@dataclass(frozen=True)
class SeparatorCandidate:
    """A union of marked products of length-residue blocks.

    Each marker word a1...an contributes the product
    (A^d)* a1 (A^d)* ... an (A^d)*; the candidate denotes the union
    over all marker words. No marker words at all denotes the empty
    language; the empty marker word contributes (A^d)* itself.
    """

    modulus: int
    markers: tuple[str, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")


def candidate_program(candidate: SeparatorCandidate, alphabet: Alphabet) -> tuple:
    """The regex program of a candidate's denotation over the given alphabet.

    The candidate is written as regex text that `parse_regex` reads:
    `0|P1|P2...`, where each Pi is `B a1 B ... an B` for the marker
    a1...an and the block B = `((a|b)...(a|b))*` holds d copies of
    the letter alternation.
    """
    block = "((" + ")(".join(["|".join(alphabet.letters)] * candidate.modulus) + "))*"
    products = (block + "".join(letter + block for letter in word) for word in candidate.markers)
    return parse_regex("|".join(["0", *products]), alphabet)


def candidate_language(
    candidate: SeparatorCandidate, alphabet: Alphabet, budget: Budget = Budget()
) -> Dfa:
    """Compile a candidate's denotation over the given alphabet."""
    return compile_regex(candidate_program(candidate, alphabet), alphabet, budget)


def marked_product_accepts(word: str, modulus: int, marker: str) -> bool:
    """Is the word in (A^d)* a1 (A^d)* ... an (A^d)*, for d the modulus and a1...an the marker?

    `starts` holds the positions where a block (A^d)* may begin after
    the marker letters read so far; a block ends where the next marker
    letter is found a multiple of d further on.
    """
    starts = {0}
    for letter in marker:
        starts = {q + 1 for p in starts for q in range(p, len(word), modulus) if word[q] == letter}
    return any((len(word) - p) % modulus == 0 for p in starts)


def _agrees_on(candidate: SeparatorCandidate, members, nonmembers) -> bool:
    """Does the candidate contain every word of `members` and none of `nonmembers`?"""

    def accepts(word):
        return any(marked_product_accepts(word, candidate.modulus, m) for m in candidate.markers)

    return all(map(accepts, members)) and not any(map(accepts, nonmembers))


def verify_separator(k: Dfa, l1: Dfa, l2: Dfa, budget: Budget = Budget()) -> bool:
    """Exact check that k contains l1 and avoids l2, walking product states within `budget`."""
    return included(l1, k, budget) and disjoint(k, l2, budget)


# The search's bounds: deliberately small, as the witness is optional.
DMAX = 4
NMAX = 2
UNION_BOUND = 2

# Words of l2 a candidate separator is tried on before it is compiled.
PROBE_EXTRA = 2
PROBE_WORDS = 64


def pol_mod_separator_search(
    l1: Dfa,
    l2: Dfa,
    dmax: int = DMAX,
    nmax: int = NMAX,
    union_bound: int = UNION_BOUND,
    budget: Budget = Budget(),
) -> SeparatorCandidate | None:
    """Bounded search for a marked-product separator of l1 from l2.

    Tries moduli d <= dmax; marker words are members of l1 of length
    <= nmax, combined into unions of at most union_bound products.
    Returns the first candidate (by increasing d, then union size,
    then length-lexicographic marker combination) whose denotation
    verifies, or None when the space is exhausted. A hit certifies
    separability at level 1/2; exhaustion certifies nothing.

    Before a candidate is compiled, it is tried on words: it must
    contain the marker pool (words of l1) and avoid the first
    PROBE_WORDS words of l2 of length at most nmax + PROBE_EXTRA. A
    candidate failing that cannot verify, so the search returns what
    it would return without the test.

    At most `budget.antichain` candidates are tried, and a candidate
    whose compilation or verification outgrows `budget` ends the search:
    either way it returns None, as on exhaustion, and reports no overrun.
    A large pool (625 two-letter markers over 25 letters) would otherwise
    try hundreds of thousands of marker pairs per modulus.
    """
    if l1.alphabet != l2.alphabet:
        raise ValueError("separation inputs use different alphabets")
    pool = list(iter_short_words(l1, nmax))
    probes = list(islice(iter_short_words(l2, nmax + PROBE_EXTRA), PROBE_WORDS))
    candidates = (
        SeparatorCandidate(d, markers)
        for d in range(1, dmax + 1)
        for size in range(0, union_bound + 1)
        for markers in combinations(pool, size)
    )
    for candidate in islice(candidates, budget.antichain):
        if not _agrees_on(candidate, pool, probes):
            continue
        try:
            denoted = candidate_language(candidate, l1.alphabet, budget)
            if verify_separator(denoted, l1, l2, budget):
                return candidate
        except BudgetExceededError:
            return None
    return None
