"""Shared fixtures, structure builders and random generators for the test suite.

The test files test the package module by module, one test per claim;
a property test runs its kept inputs, such as 200 fixed random pairs,
as Hypothesis `@example`s beside the drawn ones, and a module's fixed
answers under one harness are rows of one parametrized test, each row
named by `named`. The fixtures they share are here: `lang(text,
alphabet=AB)`, the alphabets `A` and `AB`, the basis oracle `ORACLE`,
`fs`, the method counter `count_calls`, unary length parity as the
power semiring `PARITY_POWER` and the rating map `PARITY`, the
one-element semiring `TRIVIAL`, and `covering_instance` and its
`parity_instance`, built per call since a morphism keeps memo tables.
The references and rule checkers are in `oracles`, and the command
lines with their answers in `command_lines`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from modhier.basis import BasisOracle, mod_cover_oracle, mod_separable
from modhier.errors import Budget
from modhier.lang import (
    Alphabet,
    Dfa,
    MonoidMorphism,
    compile_regex,
    explore,
    parse_regex,
    transition_monoid,
)
from modhier.rating import RatingMap, aux_pbpol_map, canonical_covering_map
from modhier.refcheck import SeparatorCandidate, candidate_program
from modhier.semiring import (
    Antichain,
    AntichainSemiring,
    DownSet,
    PairSpace,
    PowerSemiring,
    antichain_of,
)

from oracles import downset_elements, elements_below, generic_iopti

A = Alphabet.of("a")
AB = Alphabet.of("ab")
ORACLE = mod_cover_oracle()
# The largest monoid a test asks a level-1 query of. Level 1 sums its
# pair values with no budget (known defect 1 in ROADMAP.md), and up to
# this size its engine is known to end.
LEVEL_ONE_SIZE_CAP = 7


def fs(*xs):
    return frozenset(xs)


def lang(text, alphabet=AB):
    return compile_regex(parse_regex(text, alphabet), alphabet)


def named(rows):
    """The rows of a table as `pytest.param`s, each row's first field its id."""
    return [pytest.param(*row, id=name) for name, *row in rows]


def covering_instance(dfas):
    """The transition monoid of the DFAs and its canonical covering map."""
    morphism = transition_monoid(dfas)
    return morphism, canonical_covering_map(morphism)


def parity_instance():
    """Unary parity: the two-element monoid of (aa)* and its covering map."""
    return covering_instance([lang("(aa)*", A)])


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of each call of `owner.name`, a
    method or a module's function, from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TableSemiring:
    """Explicit small semiring given by operation tables; axioms checked.

    The carrier is range(n). Like a power semiring, it is a
    multiplicative space too: `unit` is its one and `mult` its `mul`.
    """

    def __init__(self, add_table, mul_table, zero: int, one: int):
        self._add = tuple(tuple(row) for row in add_table)
        self._mul = tuple(tuple(row) for row in mul_table)
        self.zero = zero
        self.one = self.unit = one
        n = len(self._add)
        self._check_axioms(n)
        # order as a bit of precomputation; carriers here are small
        self._leq = tuple(
            tuple(self._add[r][s] == s for s in range(n)) for r in range(n)
        )

    def _check_axioms(self, n: int) -> None:
        rng = range(n)
        a, m = self._add, self._mul
        for x in rng:
            if a[x][x] != x:
                raise ValueError(f"addition not idempotent at {x}")
            if a[self.zero][x] != x or a[x][self.zero] != x:
                raise ValueError(f"zero not neutral at {x}")
            if m[self.one][x] != x or m[x][self.one] != x:
                raise ValueError(f"one not neutral at {x}")
            if m[self.zero][x] != self.zero or m[x][self.zero] != self.zero:
                raise ValueError(f"zero not annihilating at {x}")
            for y in rng:
                if a[x][y] != a[y][x]:
                    raise ValueError(f"addition not commutative at ({x},{y})")
                for z in rng:
                    if a[a[x][y]][z] != a[x][a[y][z]]:
                        raise ValueError(f"addition not associative at ({x},{y},{z})")
                    if m[m[x][y]][z] != m[x][m[y][z]]:
                        raise ValueError(f"multiplication not associative at ({x},{y},{z})")
                    if m[x][a[y][z]] != a[m[x][y]][m[x][z]]:
                        raise ValueError(f"left distributivity fails at ({x},{y},{z})")
                    if m[a[y][z]][x] != a[m[y][x]][m[z][x]]:
                        raise ValueError(f"right distributivity fails at ({x},{y},{z})")

    def add(self, x, y):
        return self._add[x][y]

    def mul(self, x, y):
        return self._mul[x][y]

    def mult(self, x, y):
        return self.mul(x, y)

    def sum(self, items) -> int:
        total = self.zero
        for x in items:
            total = self.add(total, x)
        return total

    def leq(self, x, y) -> bool:
        return self._leq[x][y]

    def elements(self) -> range:
        return range(len(self._add))

    def top(self) -> int:
        return self.sum(self.elements())


class SeparationOnlyOracle(BasisOracle):
    """The length-residue basis through its separation alone: iopti sums
    the word images that `mod_separable` cannot separate from the empty
    word (`oracles.generic_iopti`), with no closed form."""

    def iopti(self, rho, budget: Budget = Budget()):
        return generic_iopti(rho, mod_separable, budget)

    def separates(self, l1, l2, budget: Budget = Budget()):
        return mod_separable(l1, l2, budget)


class CyclicMonoid:
    """Z/nZ under addition, unit 0."""

    def __init__(self, n: int):
        self.n = n
        self.unit = 0

    def mult(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def elements(self) -> range:
        return range(self.n)


class TransformationMonoid:
    """Monoid of transformations of a finite set, elements indexed by int."""

    def __init__(self, transformations):
        self._elems = list(transformations)
        if self._elems[0] != tuple(range(len(self._elems[0]))):
            raise ValueError("element 0 must be the identity")
        self._index = {t: i for i, t in enumerate(self._elems)}
        self.unit = 0

    def mult(self, i: int, j: int) -> int:
        ti, tj = self._elems[i], self._elems[j]
        return self._index[tuple(tj[x] for x in ti)]

    def elements(self) -> range:
        return range(len(self._elems))


PARITY_POWER = PowerSemiring(CyclicMonoid(2))
PARITY = RatingMap(A, PARITY_POWER, {"a": fs(1)})
TRIVIAL = TableSemiring([[0]], [[0]], zero=0, one=0)


def random_monoid(
    rng: random.Random, max_size: int = 4, points: int = 3, min_size: int = 1
) -> TransformationMonoid:
    """Random transformation monoid with min_size to max_size elements.

    Draws until a monoid fits. Most draws are tiny (a mean of about 2
    elements at max_size 12), so a test that needs larger ones raises
    min_size; the default accepts every draw that fits max_size.
    """
    while True:
        k = rng.randint(1, points)
        gens = [tuple(rng.randrange(k) for _ in range(k)) for _ in range(rng.randint(1, 2))]
        identity = tuple(range(k))
        elems = [identity]
        seen = {identity}
        i = 0
        small = True
        while i < len(elems) and small:
            t = elems[i]
            i += 1
            for g in gens:
                u = tuple(g[x] for x in t)
                if u not in seen:
                    seen.add(u)
                    elems.append(u)
                    if len(elems) > max_size:
                        small = False
                        break
        if small and len(elems) >= min_size:
            return TransformationMonoid(elems)


def materialize(semiring) -> TableSemiring:
    """Tabulate a semiring whose carrier is the downset of its top (axioms re-checked)."""
    elems = list(elements_below(semiring, semiring.top()))
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[semiring.add(x, y)] for y in elems] for x in elems]
    mul = [[index[semiring.mul(x, y)] for y in elems] for x in elems]
    return TableSemiring(add, mul, index[semiring.zero], index[semiring.one])


def table_from_seed(seed: int, max_size: int = 4) -> TableSemiring:
    """A materialized power semiring over a random monoid of at most max_size elements."""
    return materialize(PowerSemiring(random_monoid(random.Random(seed), max_size=max_size)))


def random_power_semiring(rng: random.Random, max_size: int = 4, min_size: int = 1) -> PowerSemiring:
    return PowerSemiring(random_monoid(rng, max_size=max_size, min_size=min_size))


def random_subset(rng: random.Random, items) -> frozenset:
    pool = list(items)
    return frozenset(x for x in pool if rng.random() < 0.5)


def random_rating_map(
    rng: random.Random, alphabet: Alphabet, max_monoid: int = 4, min_monoid: int = 1
):
    """Random nice multiplicative map into a power semiring of a small monoid."""
    semiring = random_power_semiring(rng, max_size=max_monoid, min_size=min_monoid)
    carrier = list(semiring.monoid.elements())
    images = {a: random_subset(rng, carrier) for a in alphabet}
    return RatingMap(alphabet, semiring, images)


def seeded_maps(first: int, count: int = 1) -> list:
    """The `random_rating_map`s over `ab` of the seeds first, ...,
    first + count - 1, one seed each."""
    return [random_rating_map(random.Random(seed), AB) for seed in range(first, first + count)]


def eval_word(rho, word: str):
    """Image of a single word under a rating map: the product of its letter images."""
    value = rho.semiring.one
    for a in word:
        value = rho.semiring.mul(value, rho.letter_image[a])
    return value


def image_of_word(morphism, word: str) -> int:
    """The monoid element a word maps to: the product of its letter images."""
    m = morphism.unit
    for a in word:
        m = morphism.mult(m, morphism.letter_image[a])
    return m


def validate_morphism(morphism, assoc_limit: int = 200) -> None:
    """Check unit laws (always) and associativity (exhaustively, when small)."""
    elements = morphism.elements()
    for i in elements:
        if morphism.mult(morphism.unit, i) != i or morphism.mult(i, morphism.unit) != i:
            raise ValueError(f"unit law fails at element {i}")
    if morphism.size <= assoc_limit:
        for i in elements:
            for j in elements:
                ij = morphism.mult(i, j)
                for k in elements:
                    if morphism.mult(ij, k) != morphism.mult(i, morphism.mult(j, k)):
                        raise ValueError(f"associativity fails at ({i},{j},{k})")


def product_transition_monoid(dfas, budget: Budget = Budget()) -> MonoidMorphism:
    """The transition monoid of the DFAs' product automaton, by two walks:
    `explore` numbers the product states reachable from the tuple of
    initial states, then closes the letters' actions on them. The
    reference for `lang.transition_monoid`, which acts on the DFAs' own
    states instead."""
    alphabet = dfas[0].alphabet

    def step(state, l):
        return tuple(d.transitions[q][l] for d, q in zip(dfas, state))

    init = tuple(d.initial for d in dfas)
    states, moves, _ = explore(init, range(len(alphabet)), step, budget, "monoid")
    letter_maps = list(zip(*moves))
    identity = tuple(range(len(states)))
    transformations, right, tree = explore(
        identity, letter_maps, lambda t, m: tuple(map(m.__getitem__, t)), budget, "monoid"
    )
    accept_sets = [
        frozenset(m for m, t in enumerate(transformations) if states[t[0]][i] in d.accepting)
        for i, d in enumerate(dfas)
    ]
    return MonoidMorphism(alphabet, right, tree, accept_sets)


def ceiling_totals(semiring, pairs) -> frozenset:
    """The maximal admissible totals of the pairs (r, U), by ceilings.

    For each c in the meet-closure of the elements of every U, P(c) is
    the set of values r of the pairs with r <= c and c below some
    element of their U. Returns the maxima of the sums of the nonempty
    P(c). If a family's total t lies below a chosen v_i in each member's
    U_i, the meet c of those v_i is such a ceiling: each member is in
    P(c), so t <= sum P(c) <= c, and sum P(c) is admissible itself.
    """
    pairs = list(pairs)
    leq = semiring.leq
    ceilings = {v for _, u in pairs for v in u}
    todo = list(ceilings)
    while todo:
        x = todo.pop()
        for y in list(ceilings):
            m = semiring.meet(x, y)
            if m not in ceilings:
                ceilings.add(m)
                todo.append(m)
    totals = []
    for c in ceilings:
        below = [r for r, u in pairs if leq(r, c) and any(leq(c, v) for v in u)]
        if below:
            totals.append(semiring.sum(below))
    return antichain_of(semiring, totals)


def unpointed(imprint: DownSet) -> DownSet:
    """Forget the monoid coordinate of a pointed imprint, keeping the value downset."""
    semiring = imprint.space.semiring
    values = antichain_of(semiring, {r for _, r in imprint.maximal})
    return DownSet(semiring, values, imprint.passes)


def all_pairs_close_products(space, acc, old=frozenset()):
    """The all-pairs reference for `engines._close_products`: every pass
    multiplies every pair of its snapshot, with no `old` skip."""
    changed_any = False
    passes = 0
    while True:
        passes += 1
        changed = False
        snapshot = list(acc)
        for x in snapshot:
            for y in snapshot:
                if acc.add(space.mult(x, y)):
                    changed = True
        if not changed:
            return changed_any, passes
        changed_any = True


def pbpol_iopti_all_candidates(morphism, rho, oracle, budget: Budget = Budget()) -> DownSet:
    """`engines.pbpol_iopti` with the idempotent rule applied to every candidate.

    Each round materializes the whole downset of every basis value T
    and adds (e, f * (1 + r) * f) for each idempotent pair (e, f) in
    it, maximal or not, then closes under the product by all pairs. A
    reference for the engine, which applies the rule to the maximal
    idempotents below each maximum of T only, and closes by
    generators, skipping the products of the antichain it closed last.
    """
    semiring = rho.semiring
    space = PairSpace(morphism, semiring)
    acc = Antichain(space, budget=budget)
    for iterations in budget.rounds():
        eta = aux_pbpol_map(morphism, rho, acc.freeze(), AntichainSemiring(space))
        changed = False
        for r, t_value in oracle.iopti(eta, budget):
            for pair in t_value:
                if acc.add(pair):
                    changed = True
            for candidate in downset_elements(DownSet(space, t_value), budget):
                if space.mult(candidate, candidate) != candidate:
                    continue
                e, f = candidate
                image = semiring.mul(semiring.mul(f, semiring.add(semiring.one, r)), f)
                if acc.add((e, image)):
                    changed = True
        closed_changed, _ = all_pairs_close_products(space, acc)
        if not (changed or closed_changed):
            return DownSet(space, acc.freeze(), iterations)


def random_regex(rng: random.Random, alphabet: Alphabet, depth: int = 3) -> str:
    """Random regex text over union, concatenation, star, letters, e, 0."""
    if depth <= 0 or rng.random() < 0.3:
        pool = list(alphabet.letters) * 3 + ["e", "0"]
        return rng.choice(pool)
    kind = rng.choice(["alt", "seq", "star"])
    if kind == "alt":
        return f"({random_regex(rng, alphabet, depth - 1)}|{random_regex(rng, alphabet, depth - 1)})"
    if kind == "seq":
        return f"({random_regex(rng, alphabet, depth - 1)}{random_regex(rng, alphabet, depth - 1)})"
    return f"({random_regex(rng, alphabet, depth - 1)})*"


def residue_language(rng: random.Random, alphabet: Alphabet, max_modulus: int = 3) -> Dfa:
    """A level-0 language: the words whose length lies in one of a few
    classes r mod d, written as the union of (A^d)* A^r over those r."""
    d = rng.randint(1, max_modulus)
    letter = "(" + "|".join(alphabet.letters) + ")"
    residues = sorted(rng.sample(range(d), rng.randint(1, d)))
    text = "|".join(f"({letter * d})*{letter * r}" for r in residues)
    return compile_regex(parse_regex(text, alphabet), alphabet)


def marked_product_program(
    rng: random.Random, alphabet: Alphabet, max_modulus: int = 2, max_length: int = 2
) -> tuple:
    """The program of a level-1/2 language: a union of one or two marked
    products (A^d)* a1 (A^d)* ... an (A^d)* of length-residue blocks,
    built as the witness search builds its candidates."""
    d = rng.randint(1, max_modulus)
    markers = tuple(
        "".join(rng.choices(alphabet.letters, k=rng.randint(1, max_length)))
        for _ in range(rng.randint(1, 2))
    )
    return candidate_program(SeparatorCandidate(d, markers), alphabet)


def marked_product_language(rng: random.Random, alphabet: Alphabet) -> Dfa:
    """A level-1/2 language, compiled from `marked_product_program`."""
    return compile_regex(marked_product_program(rng, alphabet), alphabet)


def boolean_combination_program(rng: random.Random, alphabet: Alphabet) -> tuple:
    """The program of a level-1 language: the complement of one
    `marked_product_program`, or the union or intersection of two. Level
    1 is the Boolean closure of level 1/2."""
    program = marked_product_program(rng, alphabet)
    kind = rng.choice(["~", "|", "&"])
    if kind != "~":
        program += marked_product_program(rng, alphabet)
    return program + ((kind, None),)


def boolean_combination_language(rng: random.Random, alphabet: Alphabet) -> Dfa:
    """A level-1 language, compiled from `boolean_combination_program`."""
    return compile_regex(boolean_combination_program(rng, alphabet), alphabet)


def marked_concatenation_language(
    rng: random.Random, alphabet: Alphabet, budget: Budget = Budget()
) -> Dfa:
    """A level-3/2 language: the marked product L0 a L1 of two
    `boolean_combination_program`s and a letter. Level 3/2 is the
    polynomial closure of level 1. Its derivatives can outgrow the
    state budget, which the caller may set low."""
    left = boolean_combination_program(rng, alphabet)
    letter = rng.choice(alphabet.letters)
    right = boolean_combination_program(rng, alphabet)
    program = left + (("letter", letter), (".", None)) + right + ((".", None),)
    return compile_regex(program, alphabet, budget)


def random_dfa(rng: random.Random, alphabet: Alphabet, max_states: int = 6, depth: int = 3):
    """Random small minimal DFA obtained by compiling a random regex."""
    while True:
        text = random_regex(rng, alphabet, depth)
        dfa = compile_regex(parse_regex(text, alphabet), alphabet)
        if dfa.num_states <= max_states:
            return dfa


def random_instances(
    count: int, seed: int, size_cap: int | None, languages: int = 2, max_states: int = 6
) -> list:
    """`count` lists of `languages` random DFAs over `ab`, drawn in turn
    from one generator of the seed. A list is kept when the transition
    monoid of its DFAs has at most `size_cap` elements, or always when
    `size_cap` is None."""
    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        dfas = [random_dfa(rng, AB, max_states) for _ in range(languages)]
        if size_cap is None or transition_monoid(dfas).size <= size_cap:
            instances.append(dfas)
    return instances


def drawn_instances(size_cap: int | None, languages: int = 2, max_states: int = 6):
    """A Hypothesis strategy: the one-instance list of `random_instances`
    from a drawn seed. A test over such lists takes a kept list of many
    as an `@example`."""
    return st.integers(0, 10**9).map(
        lambda seed: random_instances(1, seed, size_cap, languages, max_states)
    )


def search_pairs() -> list:
    """Two hand pairs that the bounded separator search separates, then
    sixty random pairs of at most 8 elements (seed 6000)."""
    hand = [(lang("(aa)*", A), lang("a(aa)*", A)), (lang("(a|b)*a(a|b)*"), lang("b*"))]
    return hand + random_instances(60, 6000, size_cap=8)


def matches(program, word: str) -> bool:
    """Does the regex `program` match `word`? Read off the program opcode
    by opcode, with no automaton, so it checks `compile_regex`
    independently. Each operand is the set of pairs (i, j) such that it
    matches word[i:j]."""
    n = len(word)
    stack = []
    for kind, operand in program:
        if kind == "letter":
            stack.append({(i, i + 1) for i, a in enumerate(word) if a == operand})
        elif kind == "0":
            stack.append(set())
        elif kind == "e":
            stack.append({(i, i) for i in range(n + 1)})
        elif kind in ("|", "&", "."):
            right, left = stack.pop(), stack.pop()
            if kind == "|":
                stack.append(left | right)
            elif kind == "&":
                stack.append(left & right)
            else:
                stack.append(_joined(left, right))
        elif kind == "~":
            stack.append({(i, j) for i in range(n + 1) for j in range(i, n + 1)} - stack.pop())
        elif kind in ("*", "+"):
            # Concatenations of one or more inner spans, and for `*` also
            # the empty span at every position.
            inner = stack.pop()
            closure = set(inner) | ({(i, i) for i in range(n + 1)} if kind == "*" else set())
            while longer := _joined(closure, inner) - closure:
                closure |= longer
            stack.append(closure)
        else:
            raise TypeError(f"not a regex opcode: {(kind, operand)!r}")
    [spans] = stack
    return (0, n) in spans


def _joined(left: set, right: set) -> set:
    """The spans (i, k) of a left span (i, j) followed by a right span (j, k)."""
    return {(i, k) for i, j in left for j2, k in right if j == j2}
