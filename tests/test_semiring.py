"""Order, closure, and construction tests for the semiring layer."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhier.errors import Budget, BudgetExceededError
from modhier.lang import Alphabet, transition_monoid
from modhier.semiring import (
    Antichain,
    AntichainSemiring,
    DownSet,
    MaskSums,
    PairSpace,
    PowerSemiring,
    add_closure,
    antichain_of,
    omega_power,
)

from gen import (
    PARITY_POWER,
    CyclicMonoid,
    TableSemiring,
    fs,
    materialize,
    named,
    random_dfa,
    random_monoid,
    random_power_semiring,
    random_subset,
    table_from_seed,
)
from oracles import downset_elements, elements_below


# ---------------------------------------------------------------------------
# Canonical order


def test_leq_is_inclusion_in_power_semirings():
    assert PARITY_POWER.leq(fs(0), fs(0, 1))
    assert PARITY_POWER.leq(fs(), fs(1))
    assert not PARITY_POWER.leq(fs(0), fs(1))


def test_power_semiring_operations():
    assert PARITY_POWER.mul(fs(1), fs(1)) == fs(0)
    assert PARITY_POWER.mul(fs(0, 1), fs(1)) == fs(0, 1)
    assert PARITY_POWER.one == fs(0)
    assert PARITY_POWER.zero == fs()
    assert set(elements_below(PARITY_POWER, PARITY_POWER.top())) == {fs(), fs(0), fs(1), fs(0, 1)}


# ---------------------------------------------------------------------------
# Omega powers


# A value of a power semiring with its omega power, an idempotent.
OMEGA_POWERS = [
    ("omega_power_of_odd_residue", PARITY_POWER, fs(1), fs(0)),
    *(("omega_power_fixes_idempotents", PARITY_POWER, e, e) for e in (fs(), fs(0), fs(0, 1))),
    ("omega_power_mod_three", PowerSemiring(CyclicMonoid(3)), fs(1), fs(0)),
    ("omega_power_mod_three", PowerSemiring(CyclicMonoid(3)), fs(1, 2), fs(0, 1, 2)),
    ("omega_power_longer_cycle", PowerSemiring(CyclicMonoid(4)), fs(1), fs(0)),
    ("omega_power_longer_cycle", PowerSemiring(CyclicMonoid(4)), fs(2), fs(0)),
]


@pytest.mark.parametrize("semiring, value, omega", named(OMEGA_POWERS))
def test_omega_power(semiring, value, omega):
    assert omega_power(semiring, value) == omega
    assert semiring.mul(omega, omega) == omega


# ---------------------------------------------------------------------------
# Downward closure


# Values of 2^(Z/2Z) with the maxima and the elements of their downset.
DOWNSETS = [
    ("downclose_keeps_incomparable_maxima", [fs(0), fs(1)], {fs(0), fs(1)}, {fs(), fs(0), fs(1)}),
    ("downclose_empty_and_top", [], frozenset(), frozenset()),
    ("downclose_empty_and_top", [fs(0, 1)], {fs(0, 1)}, {fs(), fs(0), fs(1), fs(0, 1)}),
    ("downclose_prunes_dominated", [fs(0), fs(0, 1), fs()], {fs(0, 1)},
     {fs(), fs(0), fs(1), fs(0, 1)}),
    ("downclose_idempotent_on_fixture", [fs(0), fs(1), fs()], {fs(0), fs(1)}, {fs(), fs(0), fs(1)}),
]


@pytest.mark.parametrize("values, maximal, elements", named(DOWNSETS))
def test_downclose(values, maximal, elements):
    d = DownSet(PARITY_POWER, antichain_of(PARITY_POWER, values))
    assert d.maximal == maximal
    assert downset_elements(d) == elements
    for x in elements_below(PARITY_POWER, PARITY_POWER.top()):
        assert (x in d) == (x in elements)
    # Closing the maxima again keeps them.
    assert DownSet(PARITY_POWER, antichain_of(PARITY_POWER, d.maximal)).maximal == d.maximal


# ---------------------------------------------------------------------------
# Additive closure


def test_add_closure_examples():
    assert add_closure(PARITY_POWER, [fs(0), fs(1)]) == {fs(0), fs(1), fs(0, 1)}
    assert add_closure(PARITY_POWER, [fs(0)]) == {fs(0)}
    assert add_closure(PARITY_POWER, [fs(0), fs(0, 1)]) == {fs(0), fs(0, 1)}


def test_add_closure_rejects_empty():
    with pytest.raises(ValueError):
        add_closure(PARITY_POWER, [])


# ---------------------------------------------------------------------------
# Pair spaces and pair semirings


def test_pair_space_product_and_order():
    space = PairSpace(CyclicMonoid(2), PARITY_POWER)
    assert space.mult((0, fs(0)), (1, fs(1))) == (1, fs(1))
    assert space.unit == (0, fs(0))
    assert space.leq((1, fs(0)), (1, fs(0, 1)))
    assert not space.leq((0, fs(0)), (1, fs(0, 1)))


def test_pair_space_downclose_moves_second_coordinate():
    space = PairSpace(CyclicMonoid(2), PARITY_POWER)
    d = DownSet(space, antichain_of(space, [(1, fs(0, 1))]))
    assert downset_elements(d) == {(1, fs()), (1, fs(0)), (1, fs(1)), (1, fs(0, 1))}


def test_pair_semiring_lifts_componentwise():
    ps = PowerSemiring(PairSpace(CyclicMonoid(2), PARITY_POWER))
    assert ps.one == fs((0, fs(0)))
    assert ps.mul(fs((0, fs(0))), fs((1, fs(1)))) == fs((1, fs(1)))
    assert ps.add(fs((0, fs(0))), fs((1, fs(1)))) == fs((0, fs(0)), (1, fs(1)))


# ---------------------------------------------------------------------------
# Set-lifted products against the elementwise reference


def elementwise(monoid, xs, ys) -> frozenset:
    return frozenset(monoid.mult(a, b) for a in xs for b in ys)


class CountingSemiring:
    """A semiring that records every product it is asked for."""

    def __init__(self, semiring):
        self.semiring = semiring
        self.one = semiring.one
        self.asked = []

    def mul(self, x, y):
        self.asked.append((x, y))
        return self.semiring.mul(x, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_power_products_match_elementwise(seed):
    """Over a morphism (Cayley rows) and over the auxiliary maps' pair space (pair by pair)."""
    rng = random.Random(seed)
    morphism = transition_monoid([random_dfa(rng, Alphabet.of("ab"), max_states=5)])
    elements = list(morphism.elements())
    power = PowerSemiring(morphism)
    x, y = random_subset(rng, elements), random_subset(rng, elements)
    assert power.mul(x, y) == elementwise(morphism, x, y)

    inner = AntichainSemiring(PairSpace(morphism, power))
    pairs = PairSpace(power, inner)
    values = [random_subset(rng, elements) for _ in range(3)]
    seconds = [inner.normal((rng.choice(elements), v) for v in values[:k]) for k in (1, 2, 3)]
    xs = frozenset((rng.choice(values), rng.choice(seconds)) for _ in range(4))
    ys = frozenset((rng.choice(values), rng.choice(seconds)) for _ in range(4))
    assert PowerSemiring(pairs).mul(xs, ys) == elementwise(pairs, xs, ys)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_product_monoid_forms_each_second_product_once(seed):
    rng = random.Random(seed)
    first, power = random_monoid(rng, max_size=5), random_power_semiring(rng, max_size=3)
    second = CountingSemiring(power)
    pairs = PairSpace(first, second)
    elements = [(a, b) for a in first.elements() for b in elements_below(power, power.top())]
    xs, ys = random_subset(rng, elements), random_subset(rng, elements)
    product = PowerSemiring(pairs).mul(xs, ys)
    asked = list(second.asked)
    assert product == elementwise(pairs, xs, ys)
    assert Counter(asked) == Counter({(s, t) for _, s in xs for _, t in ys})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_pair_space_forms_each_second_product_once_across_calls(seed):
    """Set products and `mult` of one instance share its second-coordinate products."""
    rng = random.Random(seed)
    first, power = random_monoid(rng, max_size=5), random_power_semiring(rng, max_size=3)
    second = CountingSemiring(power)
    pairs, reference = PairSpace(first, second), PairSpace(first, power)
    elements = [(a, b) for a in first.elements() for b in elements_below(power, power.top())]
    xs, ys = rng.choices(elements, k=3), rng.choices(elements, k=3)
    overlapping = xs[1:] + rng.choices(elements, k=2)
    wanted = set()
    for left in (xs, overlapping):
        product = PowerSemiring(pairs).mul(frozenset(left), frozenset(ys))
        assert product == elementwise(reference, left, ys)
        wanted |= {(s, t) for _, s in left for _, t in ys}
    for x, y in zip(xs + overlapping, ys + ys[::-1]):
        assert pairs.mult(x, y) == reference.mult(x, y)
        wanted.add((x[1], y[1]))
    assert Counter(second.asked) == Counter(wanted)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_reused_antichain_semiring_forms_what_a_fresh_one_forms(seed):
    """The products one instance keeps never change a later product."""
    rng = random.Random(seed)
    monoid = random_monoid(rng, max_size=5)
    elements = list(monoid.elements())
    power = PowerSemiring(monoid)
    spaces = [
        (PairSpace(monoid, power), lambda: (rng.choice(elements), random_subset(rng, elements))),
        (power, lambda: random_subset(rng, elements)),
    ]
    for space, draw in spaces:
        reused = AntichainSemiring(space)
        values = [reused.normal(draw() for _ in range(rng.randint(0, 4))) for _ in range(4)]
        for _ in range(8):
            x, y = rng.choice(values), rng.choice(values)
            product = reused.mul(x, y)
            assert product == AntichainSemiring(space).mul(x, y)
            values.append(product)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_antichain_products_by_rows_match_pairwise_products(seed):
    """One instance multiplies every value by shared right operands twice,
    so the second time every row is read back rather than formed, and
    each product is the object formed the first time. Among the values
    are the empty one and a left operand of two elements whose rows, by
    a right operand with a zero, union to one product."""
    rng = random.Random(seed)
    monoid = random_monoid(rng, max_size=5)
    elements = list(monoid.elements())
    power = PowerSemiring(monoid)
    assert not hasattr(power, "part")
    u = monoid.unit
    spaces = [
        (
            PairSpace(monoid, power),
            lambda: (rng.choice(elements), random_subset(rng, elements)),
            (fs((u, fs()), (u, fs(u))), fs((u, fs()))),
        ),
        (power, lambda: random_subset(rng, elements), (fs(fs(), fs(u)), fs(fs()))),
    ]
    for space, draw, (left, right) in spaces:
        semiring = AntichainSemiring(space)
        values = [frozenset(draw() for _ in range(rng.randint(0, 4))) for _ in range(4)]
        values += [left, fs()]
        rights = values[:2] + [semiring.normal(draw() for _ in range(3)), right]
        first = {}
        for _ in range(2):
            for x in values:
                for y in rights:
                    pairwise = [space.mult(a, b) for a in x for b in y]
                    product = semiring.mul(x, y)
                    assert product == antichain_of(space, pairwise)
                    assert first.setdefault(product, product) is product
        assert len(semiring.mul(left, right)) == 1


def test_products_are_canonical_objects():
    """Each product table returns one object per distinct value it forms:
    the morphism's set products, a pair space's pairs, and an antichain
    semiring's products and rows."""
    morphism = transition_monoid([random_dfa(random.Random(3), Alphabet.of("ab"))])
    first = morphism.mult_sets(fs(0), fs(*morphism.elements()))
    second = morphism.mult_sets(fs(*morphism.elements()), fs(0))
    assert first == second and first is second

    space = PairSpace(CyclicMonoid(2), PARITY_POWER)
    x = space.mult((0, fs(1)), (1, fs(1)))
    y = space.mult((1, fs(0)), (0, fs(0)))
    assert x == (1, fs(0)) and x is y

    inner = AntichainSemiring(space)
    x = inner.mul(fs((0, fs(1)), (1, fs(0))), fs((0, fs(1))))
    y = inner.mul(fs((1, fs(1)), (0, fs(0))), fs((1, fs(1))))
    assert x == fs((0, fs(0)), (1, fs(1))) and x is y
    # Four rows, two of each content: (0, {1}) (0, {1}) = (1, {1}) (1, {1}).
    rows = inner._rows
    assert len(rows) == 4 and len({id(row) for row in rows.values()}) == 2
    assert rows[(0, fs(1)), fs((0, fs(1)))] is rows[(1, fs(1)), fs((1, fs(1)))]


# ---------------------------------------------------------------------------
# Explicit tables and axiom checking


def test_materialized_power_semiring_passes_axioms():
    table = materialize(PARITY_POWER)
    assert len(list(table.elements())) == 4
    elems = list(elements_below(PARITY_POWER, PARITY_POWER.top()))
    for x in table.elements():
        for y in table.elements():
            assert elems[table.add(x, y)] == PARITY_POWER.add(elems[x], elems[y])
            assert elems[table.mul(x, y)] == PARITY_POWER.mul(elems[x], elems[y])


def test_table_semiring_rejects_broken_idempotence():
    # Boolean semiring with addition corrupted at (1,1).
    with pytest.raises(ValueError, match="idempotent"):
        TableSemiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], zero=0, one=1)


def test_table_semiring_rejects_broken_distributivity():
    # Force x*(y+z) != x*y + x*z by misplacing a product.
    add = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    with pytest.raises(ValueError):
        TableSemiring(add, mul, zero=0, one=1)


# ---------------------------------------------------------------------------
# Antichains


def test_antichain_accumulator():
    acc = Antichain(PARITY_POWER)
    assert acc.add(fs(0))
    assert not acc.add(fs())
    assert acc.add(fs(0, 1))
    assert set(acc) == {fs(0, 1)}
    assert fs(1) in DownSet(PARITY_POWER, acc.freeze())
    assert acc.freeze() == fs(fs(0, 1))


def test_antichain_budget():
    incomparable = SimpleNamespace(leq=lambda x, y: x == y)
    acc = Antichain(incomparable, budget=Budget(antichain=2))
    acc.add(1)
    acc.add(2)
    with pytest.raises(BudgetExceededError):
        acc.add(3)


class FlatAntichain:
    """The unbucketed accumulator: one list, every element compared with every other."""

    def __init__(self, leq, budget):
        self.leq = leq
        self.budget = budget
        self.items = []

    def add(self, x) -> bool:
        if any(self.leq(x, m) for m in self.items):
            return False
        self.items = [m for m in self.items if not self.leq(m, x)]
        self.items.append(x)
        if len(self.items) > self.budget.antichain:
            raise self.budget.exceeded("antichain")
        return True

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def flat_maxima(leq, items) -> frozenset:
    return frozenset(x for x in items if not any(leq(x, y) and x != y for y in items))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.one_of(st.none(), st.integers(1, 8)))
def test_bucketed_antichains_match_flat(seed, limit):
    rng = random.Random(seed)
    morphism = transition_monoid([random_dfa(rng, Alphabet.of("ab"), max_states=4)])
    power = PowerSemiring(morphism)
    elements = list(morphism.elements())
    parts = rng.sample(elements, min(len(elements), 3))
    pairs = [(rng.choice(parts), random_subset(rng, elements)) for _ in range(rng.randint(0, 30))]
    subsets = [random_subset(rng, elements) for _ in range(rng.randint(0, 30))]
    budget = Budget() if limit is None else Budget(antichain=limit)

    def steps(acc, stream):
        out = []
        try:
            for x in stream:
                out.append((acc.add(x), len(acc), frozenset(acc)))
        except BudgetExceededError as error:
            out.append(str(error))
        return out

    # A bucket per part of the pair space; one bucket for the part-less power semiring.
    for space, stream in [(PairSpace(morphism, power), pairs), (power, subsets)]:
        assert steps(Antichain(space, budget=budget), stream) == steps(
            FlatAntichain(space.leq, budget), stream
        )
        assert antichain_of(space, stream) == flat_maxima(space.leq, stream)


def test_antichain_semiring_normalizes():
    ac = AntichainSemiring(PairSpace(CyclicMonoid(2), PARITY_POWER))
    x = fs((1, fs(0)))
    y = fs((1, fs(0, 1)))
    assert ac.normal([*x, *y]) == y
    assert ac.normal([(0, fs()), (0, fs(0)), *x]) == fs((0, fs(0)), *x)
    assert ac.mul(ac.one, x) == x
    assert (1, fs(1)) in DownSet(ac.space, y)
    assert (1, fs(1)) not in DownSet(ac.space, x)


# ---------------------------------------------------------------------------
# Randomized properties over materialized power semirings


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_power_semirings_satisfy_axioms(seed):
    table = table_from_seed(seed)
    assert 2 <= len(list(table.elements())) <= 16


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_leq_is_a_partial_order(seed):
    table = table_from_seed(seed, max_size=3)
    elems = list(table.elements())
    for x in elems:
        assert table.leq(x, x)
        for y in elems:
            if table.leq(x, y) and table.leq(y, x):
                assert x == y
            for z in elems:
                if table.leq(x, y) and table.leq(y, z):
                    assert table.leq(x, z)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_omega_power_is_idempotent_everywhere(seed):
    """In random table and power semirings, omega_power(s) is an idempotent s^k with k >= 1."""
    table = table_from_seed(seed)
    power = random_power_semiring(random.Random(seed))
    carriers = [(table, table.elements()), (power, elements_below(power, power.top()))]
    for semiring, carrier in carriers:
        for s in carrier:
            e = omega_power(semiring, s)
            assert semiring.mul(e, e) == e
            powers = [s]
            while powers[-1] != e and powers[-1] not in powers[:-1]:
                powers.append(semiring.mul(powers[-1], s))
            assert powers[-1] == e


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_operations_are_monotone(seed):
    table = table_from_seed(seed, max_size=3)
    elems = list(table.elements())
    pairs = [(x, y) for x in elems for y in elems if table.leq(x, y)]
    for x, y in pairs:
        for z in elems:
            assert table.leq(table.mul(x, z), table.mul(y, z))
            assert table.leq(table.mul(z, x), table.mul(z, y))
            assert table.leq(table.add(x, z), table.add(y, z))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_downclose_matches_brute_force(seed):
    rng = random.Random(seed)
    table = table_from_seed(seed, max_size=3)
    elems = list(table.elements())
    xs = random_subset(rng, elems)
    d = DownSet(table, antichain_of(table, xs))
    brute = {r for r in elems if any(table.leq(r, x) for x in xs)}
    assert downset_elements(d) == brute
    for r in elems:
        assert (r in d) == (r in brute)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_add_closure_is_closed_and_dominating(seed):
    rng = random.Random(seed)
    table = table_from_seed(seed, max_size=3)
    elems = list(table.elements())
    xs = random_subset(rng, elems) or frozenset({table.zero})
    closed = add_closure(table, xs)
    for x in closed:
        assert any(table.leq(base, x) for base in xs)
        for y in closed:
            assert table.add(x, y) in closed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 10), st.booleans())
@example(seed=0, count=1, empty=False)
@example(seed=0, count=1, empty=True)
def test_add_closure_on_masks_matches_the_loop_over_the_table(seed, count, empty):
    """Power-semiring values closed as masks in a `MaskSums`, then decoded,
    give the closure of the loop over the materialized table."""
    rng = random.Random(seed)
    power = random_power_semiring(rng, max_size=4, min_size=3)
    table = materialize(power)
    # The table numbers the carrier in `elements_below` order.
    elems = list(elements_below(power, power.top()))
    index = {x: i for i, x in enumerate(elems)}
    xs = [rng.choice(elems) for _ in range(count)]
    xs += xs[: count // 2]
    if empty:
        xs.append(power.zero)
    by_table = {elems[i] for i in add_closure(table, [index[x] for x in xs])}
    masks = MaskSums(xs)
    on_masks = add_closure(masks, map(masks.encode, xs))
    assert set(map(masks.decode, on_masks)) == by_table
