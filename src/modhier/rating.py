"""Rating maps given by letter images.

A rating map assigns every regular language a value in a finite
idempotent semiring; the nice multiplicative ones used here are
determined by their letter images (empty word to the unit, words to
products, languages to sums of word values). Builds the canonical
covering map of a transition monoid and the two auxiliary maps the
level-1 and level-3/2 fixpoints filter against.
"""

from __future__ import annotations

from typing import Iterable

from .lang import Alphabet, MonoidMorphism
from .semiring import AntichainSemiring, PairSpace, PowerSemiring


class RatingMap:
    """A nice multiplicative rating map stored as its letter-image table."""

    def __init__(self, alphabet: Alphabet, semiring: PowerSemiring, letter_image: dict):
        missing = [a for a in alphabet if a not in letter_image]
        if missing:
            raise ValueError(f"letter image missing for {missing}")
        self.alphabet = alphabet
        self.semiring = semiring
        self.letter_image = {a: letter_image[a] for a in alphabet}


def canonical_covering_map(morphism: MonoidMorphism) -> RatingMap:
    """The covering map of a transition monoid: a maps to {alpha(a)}.

    Its language values are the image sets alpha(K) in 2^M, so a value
    meets accept set F_i exactly when K intersects the i-th language.
    """
    semiring = PowerSemiring(morphism)
    images = {a: frozenset({m}) for a, m in morphism.letter_image.items()}
    return RatingMap(morphism.alphabet, semiring, images)


def aux_bpol_map(
    rho: RatingMap, s_values: Iterable, inner: PowerSemiring | AntichainSemiring
) -> RatingMap:
    """The auxiliary map a -> {(rho(a), S.{rho(a)}.S)} into 2^(R x 2^R).

    S is a set of semiring values, taken as given, and `inner` forms the
    products of the second coordinates, the only operation they take.
    The exact `PowerSemiring(R)` keeps them as literal subsets of R;
    `AntichainSemiring(R)` prunes the products to maxima, sound for
    consumers that only read the result through downward closure, and
    then only the maxima of S count.
    """
    return _aux_map(rho, s_values, inner, rho.letter_image)


def aux_pbpol_map(
    morphism: MonoidMorphism,
    rho: RatingMap,
    s_pairs: Iterable,
    inner: PowerSemiring | AntichainSemiring,
) -> RatingMap:
    """The auxiliary map a -> {(rho(a), S.{(alpha(a), rho(a))}.S)}.

    S is a set of monoid-value pairs, taken as given; values are in 2^(R x 2^(M x R)).
    The inner products are exact in `PowerSemiring(PairSpace(M, R))` or
    antichain-pruned in `AntichainSemiring(PairSpace(M, R))` (same
    soundness condition as aux_bpol_map).
    """
    marks = {a: (morphism.letter_image[a], r) for a, r in rho.letter_image.items()}
    return _aux_map(rho, s_pairs, inner, marks)


def _aux_map(rho: RatingMap, s_items: Iterable, inner, marks: dict) -> RatingMap:
    """The auxiliary map a -> {(rho(a), S.{marks[a]}.S)}, S the set of `s_items` as given."""
    s_value = frozenset(s_items)
    outer = PowerSemiring(PairSpace(rho.semiring, inner))
    images = {}
    for letter, r in rho.letter_image.items():
        wrapped = inner.mul(inner.mul(s_value, frozenset([marks[letter]])), s_value)
        images[letter] = frozenset({(r, wrapped)})
    return RatingMap(rho.alphabet, outer, images)
