"""Fixpoint-engine tests: fixtures are hand-saturated, properties randomized."""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modhier import engines
from modhier.decide import member, separable
from modhier.engines import (
    _close_products,
    _maximal_idempotents,
    bpol_iopti,
    bpol_opti,
    admissible_totals,
    pbpol_iopti,
    pbpol_pointed_imprint,
    pol_imprint,
)
from modhier.errors import Budget, BudgetExceededError
from modhier.lang import Alphabet, MonoidMorphism, disjoint, included, transition_monoid
from modhier.rating import RatingMap, aux_bpol_map, aux_pbpol_map, canonical_covering_map
from modhier.semiring import (
    Antichain,
    AntichainSemiring,
    DownSet,
    PairSpace,
    PowerSemiring,
    antichain_of,
)

from gen import (
    A,
    AB,
    CyclicMonoid,
    ORACLE,
    TableSemiring,
    all_pairs_close_products,
    ceiling_totals,
    count_calls,
    drawn_instances,
    fs,
    lang,
    pbpol_iopti_all_candidates,
    random_dfa,
    random_instances,
    random_monoid,
    random_power_semiring,
    random_rating_map,
    random_subset,
    unpointed,
)
from oracles import (
    assert_bpol_filter_stable,
    assert_pbpol_rules_stable,
    assert_pol_rules_stable,
    assert_products_inside,
    bpol_iopti_enumerated,
    downset_elements,
    elements_below,
    imprint_covers,
)

ABC = Alphabet.of("abc")
# The k-th letter from the end is a, against the same for b.
KTH2 = "(a|b)*{}(a|b)"
KTH3 = KTH2 + "(a|b)"
KTH4 = KTH3 + "(a|b)"
FACTOR_ABA = "(a|b)*aba(a|b)*"


def pair_morphism(first, second):
    return transition_monoid([lang(first), lang(second)])


def covering_instance(dfas):
    """The transition monoid of the DFAs and its canonical covering map."""
    morphism = transition_monoid(dfas)
    return morphism, canonical_covering_map(morphism)


@pytest.fixture
def parity_instance():
    """Unary parity: two-element monoid, canonical covering map."""
    return covering_instance([lang("(aa)*", A)])


def trivial_semiring():
    return TableSemiring([[0]], [[0]], zero=0, one=0)


# ---------------------------------------------------------------------------
# Product closure


def generation_close_products(space, acc, old=frozenset()):
    """The generation reference: each generation multiplies every live element
    the previous one added (the antichain at the call, first) by every
    generator, with no `old` skip."""
    generators = list(acc)
    frontier = generators
    changed = False
    passes = 0
    while True:
        passes += 1
        entered = []
        for x in frontier:
            if x not in acc.freeze():
                continue
            for g in generators:
                y = space.mult(x, g)
                if acc.add(y):
                    entered.append(y)
        if not entered:
            return changed, passes
        changed = True
        frontier = entered


def idempotent_power(space, x):
    """The idempotent among the positive powers of x."""
    power = x
    while space.mult(power, power) != power:
        power = space.mult(power, x)
    return power


def random_closure_instance(rng):
    """A pair space over a transition monoid, or a power semiring as its own space,
    with small seeds, in half the draws an idempotent among them, and a few
    more elements added after the first closure."""
    elements = []
    while len(elements) < 3:
        if rng.random() < 0.5:
            morphism = transition_monoid([random_dfa(rng, AB, max_states=5)])
            space = PairSpace(morphism, PowerSemiring(morphism))
            elements = list(morphism.elements())
        else:
            space = random_power_semiring(rng, max_size=6)
            elements = list(space.monoid.elements())

    def draw():
        value = frozenset(rng.sample(elements, rng.randint(1, 2)))
        return (rng.choice(elements), value) if isinstance(space, PairSpace) else value

    seeds = [draw() for _ in range(rng.randint(1, 4))]
    closed = [idempotent_power(space, draw()) for _ in range(rng.randint(0, 1))]
    return space, seeds + closed, closed, [draw() for _ in range(rng.randint(0, 3))]


def close_outcome(close, instance, budget):
    """Close the seeds, passing the idempotents among them as `old`, as
    `pol_imprint` passes its basis pair; then add `more` and close again
    carrying the first result as `old`, as `pbpol_iopti` does. Each call's
    result, whether it moved the antichain and the antichain it left, or
    the budget error; and the final antichain."""
    space, seeds, closed, more = instance
    acc = Antichain(space, budget=budget)
    calls = []
    old = frozenset(closed)
    try:
        for batch in (seeds, more):
            for x in batch:
                acc.add(x)
            before = acc.freeze()
            result = close(space, acc, old)
            old = acc.freeze()
            calls.append((result, old != before, old))
    except BudgetExceededError as error:
        calls.append(str(error))
    return calls, acc.freeze()


def passes_of(reference):
    """A reference closure that returns its passes alone, as `_close_products` does."""
    return lambda space, acc, old=frozenset(): reference(space, acc, old)[1]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.one_of(st.none(), st.integers(1, 8)))
def test_semi_naive_closure_matches_naive(seed, limit):
    """Fixpoints as the all-pairs closure, and each call moves the antichain
    when that reference reports `changed`; passes and budget trips as the
    generation reference, which has no `old` skip."""
    instance = random_closure_instance(random.Random(seed))
    space = instance[0]
    budget = Budget() if limit is None else Budget(antichain=limit)
    outcome = close_outcome(_close_products, instance, budget)
    generation = passes_of(generation_close_products)
    assert outcome == close_outcome(generation, instance, budget)
    calls, closed = close_outcome(_close_products, instance, Budget())
    reference, _ = close_outcome(all_pairs_close_products, instance, Budget())
    assert [(moved, fixpoint) for _, moved, fixpoint in calls] == [
        (changed, fixpoint) for (changed, _), _, fixpoint in reference
    ]
    downset = DownSet(space, closed)
    assert all(space.mult(x, y) in downset for x in closed for y in closed)


def kth(k, letter):
    """The k-th letter from the end is `letter`."""
    return lang("(a|b)*" + letter + "(a|b)" * (k - 1))


def level_half_monoid_size(languages) -> int:
    """The size of the languages' monoid, after the level-1/2 closure of
    their covering map."""
    morphism = transition_monoid(languages)
    pol_imprint(morphism, canonical_covering_map(morphism), ORACLE)
    return morphism.size


# Work guards: a query, what it returns, the method whose calls it
# counts and the most calls it may make. Each comment gives the count
# with what the guard holds, and without it.
WORK_BOUNDS = [
    # The 5th letter from the end is a, against the same for b: a
    # 63-element monoid. Multiplying each entering element by each
    # generator, but what ends in the idempotent basis pair not by that
    # pair again, forms 312 pair products; by every generator, 375; a
    # semi-naive pass-based closure forms 4,753.
    pytest.param(lambda: level_half_monoid_size([kth(5, "a"), kth(5, "b")]), 63,
                 PairSpace, "mult", 330, id="level-1/2-closure"),
    # The same at k = 6, a 127-element monoid: 632 pair products, and
    # 759 when what ends in the basis pair is multiplied by it again.
    pytest.param(lambda: level_half_monoid_size([kth(6, "a"), kth(6, "b")]), 127,
                 PairSpace, "mult", 660, id="level-1/2-closure-kth6"),
    # A 41-element monoid. Closing the antichain under the product at the
    # end of every round forms 38,066 pair products; 40,889 when each
    # round's closure also multiplies by the part already closed (the
    # previous maxima and the pairs of the basis value); rounds of the
    # other rules alone reach the same imprint after 284,207.
    pytest.param(lambda: member("3/2", lang("(a(a|b)a(b)*)*"), ORACLE).answer, False,
                 PairSpace, "mult", 40_000, id="level-3/2-closure"),
    # The pair space's table of second-coordinate products bounds the
    # inner products of the auxiliary maps: 960 when every pair of
    # auxiliary values formed its own inner product.
    pytest.param(lambda: separable("3/2", kth(4, "a"), kth(4, "b"), ORACLE).answer, True,
                 AntichainSemiring, "mul", 364, id="level-3/2-antichain-products"),
    # One inner semiring per auxiliary map: its omega-power reads back the
    # rows of pair products that its earlier powers formed. 76,228 when
    # each inner product formed its pair products anew; 6,896 with rows
    # (7,985 when each round's closure also multiplies by the part
    # already closed). Before that skip, 4,477 when the inner semiring
    # also kept each pair product and the auxiliary maps' set products
    # called no `mult`.
    pytest.param(lambda: separable("3/2", kth(5, "a"), kth(5, "b"), ORACLE).answer, True,
                 PairSpace, "mult", 7200, id="level-3/2-pair-products"),
]


@pytest.mark.parametrize("query, result, owner, name, bound", WORK_BOUNDS)
def test_work_bounds(monkeypatch, query, result, owner, name, bound):
    calls = count_calls(monkeypatch, owner, name)
    assert query() == result
    assert len(calls) <= bound


@pytest.mark.parametrize("level, bound", [("1/2", 210), ("3/2", 5000)])
def test_separation_forms_each_set_product_once_per_pair_space(monkeypatch, level, bound):
    """A pair space keeps its second-coordinate products for its lifetime,
    so a closure that multiplies the same sets again reads them back."""
    calls = count_calls(monkeypatch, PowerSemiring, "mul")
    kth5 = "(a|b)*{}(a|b)(a|b)(a|b)(a|b)"
    separable(level, lang(kth5.format("a")), lang(kth5.format("b")), ORACLE)
    # 317 at level 1/2 and 9,047 at level 3/2 when each `PairSpace.mult`
    # call formed its product anew.
    assert sum(isinstance(args[0].monoid, MonoidMorphism) for args in calls) <= bound


# ---------------------------------------------------------------------------
# Level 1/2


def test_pol_imprint_parity(parity_instance):
    morphism, rho = parity_instance
    result = pol_imprint(morphism, rho, ORACLE)
    assert result.maximal == {(0, fs(0)), (1, fs(1))}
    assert downset_elements(result) == {(0, fs(0)), (1, fs(1)), (0, fs()), (1, fs())}


def test_pol_imprint_trivial_algebra():
    morphism = transition_monoid([lang("~0", A)])
    rho = RatingMap(A, trivial_semiring(), {"a": 0})
    result = pol_imprint(morphism, rho, ORACLE)
    assert result.maximal == {(0, 0)}


def test_pol_imprint_trivial_monoid_parity_values():
    morphism = transition_monoid([lang("~0")])
    rho = RatingMap(AB, PowerSemiring(CyclicMonoid(2)), {"a": fs(1), "b": fs(1)})
    result = pol_imprint(morphism, rho, ORACLE)
    assert result.maximal == {(0, fs(0)), (0, fs(1))}
    assert downset_elements(result) == {(0, fs(0)), (0, fs(1)), (0, fs())}


# Fixed instances for the rule-reapplication tests of every level: two
# by hand, then six random DFAs of at most 6 elements (seed 9000).
RULE_INSTANCES = [
    [lang("(aa)*", A)],
    [lang("a*"), lang("(a|b)*b(a|b)*")],
    *random_instances(6, 9000, size_cap=6, languages=1, max_states=4),
]


@settings(max_examples=30, deadline=None)
@given(drawn_instances(size_cap=8, languages=1, max_states=4))
@example(RULE_INSTANCES)
def test_pol_rules_reapplication_adds_nothing(instances):
    for dfas in instances:
        morphism, rho = covering_instance(dfas)
        assert_pol_rules_stable(morphism, rho, ORACLE, pol_imprint(morphism, rho, ORACLE))


# ---------------------------------------------------------------------------
# Admissible-totals reduction audit


def brute_valid_totals(semiring, pairs):
    """All sums over non-empty pair subsets meeting the side condition."""
    pairs = list(pairs)
    out = set()
    for k in range(1, len(pairs) + 1):
        for chosen in combinations(pairs, k):
            total = semiring.sum(r for r, _ in chosen)
            if all(any(semiring.leq(total, v) for v in u) for _, u in chosen):
                out.add(total)
    return frozenset(out)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 8), st.booleans())
@example(seed=0, count=1, empty=False)
@example(seed=0, count=1, empty=True)
def test_admissible_totals_match_brute_force(seed, count, empty):
    """The sums on masks against every pair subset, on 1 to 8 values of a
    power semiring, repeats allowed. With `empty` the first value is
    empty: its pair tolerates the empty total, which sums to zero. The
    values leave out one element of the monoid, and the sets in U may
    hold it: the masks number only the elements the values hold."""
    rng = random.Random(seed)
    power = random_power_semiring(rng, max_size=6, min_size=2)
    elems = list(power.monoid.elements())
    inside = elems[:-1]
    pairs = []
    for i in range(count):
        r = power.zero if empty and i == 0 else random_subset(rng, inside)
        u = [random_subset(rng, elems) | (r if rng.random() < 0.7 else power.zero)
             for _ in range(rng.randint(0, 2))]
        pairs.append((r, u))
    valid = admissible_totals(pairs, {})
    assert valid == brute_valid_totals(power, pairs)
    # The maximal totals by ceilings (ROADMAP direction 1), with no enumeration.
    assert ceiling_totals(power, pairs) == antichain_of(power, valid)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_ceilings_give_the_maximal_admissible_totals_of_auxiliary_pairs(seed):
    """On the pairs the level-1 engine sums: the basis value of the
    auxiliary map of the first round and of the fixpoint."""
    rho = random_rating_map(random.Random(seed), AB, max_monoid=3)
    semiring = rho.semiring
    for maxima in ({semiring.top()}, bpol_iopti(rho, ORACLE).maximal):
        eta = aux_bpol_map(rho, maxima, AntichainSemiring(semiring))
        pairs = ORACLE.iopti(eta)
        assert ceiling_totals(semiring, pairs) == antichain_of(
            semiring, admissible_totals(pairs, {})
        )


# ---------------------------------------------------------------------------
# Level 1


def test_bpol_iopti_parity(parity_instance):
    _, rho = parity_instance
    result = bpol_iopti(rho, ORACLE)
    assert result.maximal == {fs(0)}
    assert downset_elements(result) == {fs(), fs(0)}
    assert result.passes == 2


def test_bpol_iopti_unit_letters():
    semiring = PowerSemiring(CyclicMonoid(2))
    rho = RatingMap(AB, semiring, {"a": semiring.one, "b": semiring.one})
    result = bpol_iopti(rho, ORACLE)
    assert downset_elements(result) == {fs(), fs(0)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bpol_routes_agree(seed):
    rho = random_rating_map(random.Random(seed), AB, max_monoid=3)
    assert bpol_iopti(rho, ORACLE) == bpol_iopti_enumerated(rho, ORACLE)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bpol_routes_agree_on_monoids_of_four_or_more(seed):
    """The enumerated route sums values, each round anew, so it shares no
    closure with the engine, which keeps its masks' closures for the call."""
    rho = random_rating_map(random.Random(seed), AB, max_monoid=6, min_monoid=4)
    iopti = bpol_iopti(rho, ORACLE)
    enumerated = bpol_iopti_enumerated(rho, ORACLE)
    assert (iopti.maximal, iopti.passes) == (enumerated.maximal, enumerated.passes)


def calls_of(codes, fn, *args) -> list:
    """Names of the calls of the functions whose code objects are in
    `codes` while fn(*args) runs, however they are bound."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_the_enumerated_route_runs_none_of_the_engines_sums():
    """`bpol_iopti_enumerated` checks the engine by an independent route:
    neither `admissible_totals` nor the closure it forms runs under it."""
    codes = {engines.admissible_totals.__code__, engines.add_closure.__code__}
    rho = random_rating_map(random.Random(4), AB, max_monoid=6, min_monoid=4)
    assert calls_of(codes, bpol_iopti_enumerated, rho, ORACLE) == []
    assert set(calls_of(codes, bpol_iopti, rho, ORACLE)) == {"admissible_totals", "add_closure"}


@pytest.mark.parametrize("regexes, rounds", [
    # The heavy factor pair of the level-1 corpus: 9 values close into 511 sums.
    (("(a|b)*aab(a|b)*", "~((a|b)*aab(a|b)*)"), 2),
    # A membership query of the level-1 corpus whose fixpoint takes three rounds.
    (("((ab|e))*",), 3),
])
def test_bpol_closes_each_value_set_once_per_call(monkeypatch, regexes, rounds):
    """The pair values are word images, the same in every round: the call
    forms their sums once, where each round formed them anew before."""
    value_sets, closed = [], []
    totals, closure = engines.admissible_totals, engines.add_closure

    def spy_totals(pairs, closures):
        pairs = list(pairs)
        value_sets.append(frozenset(r for r, _ in pairs))
        return totals(pairs, closures)

    def spy_closure(sums, xs):
        # The values are closed as masks in a MaskSums: decode them.
        xs = list(xs)
        closed.append(frozenset(map(sums.decode, xs)))
        return closure(sums, xs)

    monkeypatch.setattr(engines, "admissible_totals", spy_totals)
    monkeypatch.setattr(engines, "add_closure", spy_closure)
    rho = canonical_covering_map(transition_monoid([lang(r) for r in regexes]))
    assert bpol_iopti(rho, ORACLE).passes == rounds
    assert len(value_sets) == rounds
    # Every round sums one set of values, and the call closes it once.
    assert len(set(value_sets)) == 1
    assert closed == value_sets[:1]


@settings(max_examples=20, deadline=None)
@given(drawn_instances(size_cap=6, languages=1, max_states=4))
@example(RULE_INSTANCES)
def test_bpol_rules_reapplication_changes_nothing(instances):
    """The filter keeps every value of its greatest fixpoint, and the
    level-1 imprint is closed under the product."""
    for dfas in instances:
        _, rho = covering_instance(dfas)
        iopti = bpol_iopti(rho, ORACLE)
        assert_bpol_filter_stable(rho, ORACLE, iopti)
        assert_products_inside(bpol_opti(rho, iopti))


def test_bpol_opti_parity(parity_instance):
    _, rho = parity_instance
    result = bpol_opti(rho, bpol_iopti(rho, ORACLE))
    assert result.maximal == {fs(0), fs(1)}
    assert downset_elements(result) == {fs(), fs(0), fs(1)}


def test_bpol_opti_unit_letter():
    semiring = PowerSemiring(CyclicMonoid(2))
    rho = RatingMap(A, semiring, {"a": semiring.one})
    result = bpol_opti(rho, bpol_iopti(rho, ORACLE))
    assert result.maximal == {fs(0)}
    assert downset_elements(result) == {fs(), fs(0)}


def test_bpol_opti_trivial_semiring_binary_alphabet():
    semiring = PowerSemiring(CyclicMonoid(1))
    rho = RatingMap(AB, semiring, {"a": semiring.one, "b": semiring.one})
    iopti = bpol_iopti(rho, ORACLE)
    enumerated = bpol_iopti_enumerated(rho, ORACLE)
    assert (iopti.maximal, iopti.passes) == (enumerated.maximal, enumerated.passes)
    result = bpol_opti(rho, iopti)
    assert downset_elements(result) == {fs(), fs(0)}


# ---------------------------------------------------------------------------
# Level 3/2


def test_pbpol_iopti_parity(parity_instance):
    morphism, rho = parity_instance
    result = pbpol_iopti(morphism, rho, ORACLE)
    assert result.maximal == {(0, fs(0))}
    assert downset_elements(result) == {(0, fs(0)), (0, fs())}
    assert result.passes == 2


def test_pbpol_iopti_trivial_algebra():
    # Level 3/2 rates into a power semiring; this one is over the trivial monoid.
    morphism = transition_monoid([lang("~0", A)])
    semiring = PowerSemiring(CyclicMonoid(1))
    rho = RatingMap(A, semiring, {"a": semiring.one})
    result = pbpol_iopti(morphism, rho, ORACLE)
    assert downset_elements(result) == {(0, fs(0)), (0, fs())}


def test_pbpol_pointed_imprint_parity(parity_instance):
    morphism, rho = parity_instance
    pointed = pbpol_pointed_imprint(morphism, rho, pbpol_iopti(morphism, rho, ORACLE))
    assert pointed.maximal == {(0, fs(0)), (1, fs(1))}
    assert downset_elements(pointed) == {(0, fs(0)), (1, fs(1)), (0, fs()), (1, fs())}


def test_pbpol_downset_and_product_closure(parity_instance):
    morphism, rho = parity_instance
    result = pbpol_iopti(morphism, rho, ORACLE)
    space = result.space
    for x in result.maximal:
        for y in result.maximal:
            assert space.mult(x, y) in result
        for below in elements_below(space, x):
            assert below in result


@settings(max_examples=20, deadline=None)
@given(drawn_instances(size_cap=6, languages=1, max_states=4))
@example(RULE_INSTANCES)
def test_pbpol_rules_reapplication_adds_nothing(instances):
    for dfas in instances:
        morphism, rho = covering_instance(dfas)
        assert_pbpol_rules_stable(morphism, rho, ORACLE, pbpol_iopti(morphism, rho, ORACLE))


def pbpol_fresh_and_carried(monkeypatch, morphism, rho):
    """pbpol_iopti with each closure started from scratch, then as the engine runs it.

    Each result comes with the number of pair products its run formed.
    """
    products = count_calls(monkeypatch, PairSpace, "mult")
    outcomes = []
    for fresh in (True, False):
        if fresh:
            monkeypatch.setattr(engines, "_close_products",
                                lambda space, acc, old=frozenset(): _close_products(space, acc))
        else:
            monkeypatch.setattr(engines, "_close_products", _close_products)
        products.clear()
        result = pbpol_iopti(morphism, rho, ORACLE)
        outcomes.append((result.maximal, result.passes, len(products)))
    return outcomes


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_pbpol_carried_closure_matches_fresh(seed):
    """Passing the closed antichain on changes neither the imprint nor `iterations`."""
    rng = random.Random(seed)
    dfas = [random_dfa(rng, AB, max_states=4) for _ in range(rng.randint(1, 2))]
    morphism = transition_monoid(dfas)
    assume(morphism.size <= 8)
    with pytest.MonkeyPatch.context() as monkeypatch:
        fresh, carried = pbpol_fresh_and_carried(
            monkeypatch, morphism, canonical_covering_map(morphism)
        )
    assert carried[:2] == fresh[:2]
    assert carried[2] <= fresh[2]


def test_pbpol_skips_products_of_the_closed_antichain(monkeypatch):
    morphism = pair_morphism(KTH4.format("a"), KTH4.format("b"))
    fresh, carried = pbpol_fresh_and_carried(
        monkeypatch, morphism, canonical_covering_map(morphism)
    )
    assert carried[:2] == fresh[:2]
    assert fresh[1] > 2
    assert carried[2] < fresh[2]


def test_pointed_closure_skips_products_of_iopti_maxima(monkeypatch):
    """pbpol_iopti ends on an antichain closed under the product, so the
    pointed closure forms fewer products than one that is not told so."""
    morphism = pair_morphism(KTH4.format("a"), KTH4.format("b"))
    rho = canonical_covering_map(morphism)
    iopti = pbpol_iopti(morphism, rho, ORACLE)
    seeds = list(iopti.maximal)
    seeds += [(morphism.letter_image[a], rho.letter_image[a]) for a in rho.alphabet]
    products = count_calls(monkeypatch, PairSpace, "mult")
    pointed = pbpol_pointed_imprint(morphism, rho, iopti)
    skipping = len(products)
    products.clear()
    unskipped = engines._saturate(iopti.space, seeds, Budget())
    assert (pointed.maximal, pointed.passes) == (unskipped.maximal, unskipped.passes)
    assert skipping < len(products)


def assert_matches_all_candidates(morphism, rho):
    engine = pbpol_iopti(morphism, rho, ORACLE)
    reference = pbpol_iopti_all_candidates(morphism, rho, ORACLE)
    assert (engine.maximal, engine.passes) == (reference.maximal, reference.passes)


def pbpol_instance(seed, random_map, alphabet=AB):
    """A transition monoid of one or two random DFAs, with a random
    rating map or with the monoid's covering map."""
    rng = random.Random(seed)
    dfas = [random_dfa(rng, alphabet, max_states=6, depth=4) for _ in range(rng.randint(1, 2))]
    morphism = transition_monoid(dfas)
    rho = random_rating_map(rng, alphabet) if random_map else canonical_covering_map(morphism)
    return morphism, rho


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
# A rating map on which the rule, applied at a part that is not
# idempotent, would change the fixpoint.
@example(211, True)
# A covering map on which the per-round product closure adds pairs.
@example(4, False)
def test_pbpol_matches_all_candidates_route(seed, random_map):
    """Applying the rule to maximal idempotents only keeps the fixpoint and its rounds."""
    morphism, rho = pbpol_instance(seed, random_map)
    assume(morphism.size <= 12)
    assert_matches_all_candidates(morphism, rho)


@pytest.mark.parametrize("first, second", [
    (KTH3.format("a"), KTH3.format("b")),
    (FACTOR_ABA, f"~({FACTOR_ABA})"),
])
def test_pbpol_matches_all_candidates_on_families(first, second):
    morphism = pair_morphism(first, second)
    assert morphism.size in (12, 15)
    assert_matches_all_candidates(morphism, canonical_covering_map(morphism))


# Pairs of regexes with their covering map, and seeds of `pbpol_instance`
# with the kind of map. A seed paired with `ABC` draws over three letters;
# on both of those the per-round product closure adds pairs in some round.
CLOSURE_INSTANCES = [
    (KTH3.format("a"), KTH3.format("b")),
    (KTH4.format("a"), KTH4.format("b")),
    (FACTOR_ABA, f"~({FACTOR_ABA})"),
    *((seed, random_map) for seed in (0, 1, 2, 3, 4, 211) for random_map in (False, True)),
    ((4, ABC), False),
    ((164, ABC), True),
]


@pytest.mark.parametrize("first, second", CLOSURE_INSTANCES)
def test_pbpol_closed_rounds_reach_a_rules_fixpoint(first, second):
    """Level 3/2, with the product closure in each round, ends on an
    imprint that no rule grows and that the all-candidates route reaches
    in as many rounds. Rounds of the other rules alone reach the same
    imprint, in more rounds on four of these instances."""
    if isinstance(first, str):
        morphism = pair_morphism(first, second)
        rho = canonical_covering_map(morphism)
    else:
        seed, alphabet = first if isinstance(first, tuple) else (first, AB)
        morphism, rho = pbpol_instance(seed, second, alphabet)
    assert_pbpol_rules_stable(morphism, rho, ORACLE, pbpol_iopti(morphism, rho, ORACLE))
    assert_matches_all_candidates(morphism, rho)


def closed_antichains(space, rng, count):
    """The empty antichain, the unit, and `count` antichains of one to three
    random pairs closed by the all-pairs reference."""
    yield frozenset()
    yield frozenset({space.unit})
    elements = list(space.monoid.elements())
    for _ in range(count):
        acc = Antichain(space, [
            (rng.choice(elements), frozenset(rng.sample(elements, rng.randint(1, 2))))
            for _ in range(rng.randint(1, 3))
        ])
        all_pairs_close_products(space, acc)
        yield acc.freeze()


# Six random pairs of at most 12 elements (seed 4000), then kth4.
CLOSED_PART_INSTANCES = [
    *random_instances(6, 4000, size_cap=12),
    [lang(KTH4.format("a")), lang(KTH4.format("b"))],
]


@pytest.mark.parametrize("index", range(len(CLOSED_PART_INSTANCES)))
def test_pbpol_round_part_is_closed_under_the_product(index):
    """The part `pbpol_iopti` passes its round closure as closed is: for a
    closed antichain S, S with every pair of every T of the basis value
    of the auxiliary map over S has a downset closed under the product."""
    morphism, rho = covering_instance(CLOSED_PART_INSTANCES[index])
    space = PairSpace(morphism, rho.semiring)
    for maxima in closed_antichains(space, random.Random(index), 8):
        eta = aux_pbpol_map(morphism, rho, maxima, AntichainSemiring(space))
        part = set(maxima)
        for _, t_value in ORACLE.iopti(eta):
            part.update(t_value)
        assert_products_inside(DownSet(space, antichain_of(space, part)))


def test_pbpol_applies_the_rule_to_maximal_idempotents_only(monkeypatch):
    morphism = pair_morphism(KTH4.format("a"), KTH4.format("b"))
    rho = canonical_covering_map(morphism)
    # Every set product of a run counts; the rule's are where the routes differ.
    products = count_calls(monkeypatch, PowerSemiring, "mul")
    engine = pbpol_iopti(morphism, rho, ORACLE)
    pruned = len(products)
    products.clear()
    reference = pbpol_iopti_all_candidates(morphism, rho, ORACLE)
    assert (engine.maximal, engine.passes) == (reference.maximal, reference.passes)
    assert engine.passes > 2
    assert pruned < len(products)


def test_maximal_idempotents_search_draws_on_the_antichain_budget():
    semiring = PowerSemiring(CyclicMonoid(3))
    whole = fs(0, 1, 2)
    # Z/3 is closed: the search visits it alone.
    assert _maximal_idempotents(semiring, whole, Budget(antichain=1)) == {whole}
    # {0, 1} is not closed (1 + 1 = 2) and holds the idempotent 0: the
    # search visits it and {0}.
    assert _maximal_idempotents(semiring, fs(0, 1), Budget(antichain=2)) == {fs(0)}
    with pytest.raises(BudgetExceededError,
                       match=r"^idempotent search budget exceeded \(limit 1\)$"):
        _maximal_idempotents(semiring, fs(0, 1), Budget(antichain=1))


def test_maximal_idempotents_need_no_search_below_a_value_without_idempotents():
    """A nonempty idempotent set holds an idempotent of the monoid, so
    below a value with none only the empty set is idempotent. On Z/18
    less 0 the search would visit 2,725 sets, and the walk of its 2^17
    subsets runs past the default antichain budget."""
    semiring = PowerSemiring(CyclicMonoid(18))
    value = fs(*range(1, 18))
    assert _maximal_idempotents(semiring, value, Budget(antichain=1)) == {fs()}
    assert _maximal_idempotents(semiring, fs(1, 2), Budget(antichain=1)) == {fs()}
    with pytest.raises(BudgetExceededError,
                       match=r"^downset materialization budget exceeded \(limit 50000\)$"):
        downset_elements(DownSet(semiring, fs(value)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_maximal_idempotents_match_the_walk(seed):
    """The search finds the maxima of the idempotents among every subset.

    Monoids of 4 to 12 elements, 8 values each: about half the values
    are not closed and hold an idempotent, so the search branches."""
    rng = random.Random(seed)
    monoid = random_monoid(rng, max_size=12, points=4, min_size=4)
    semiring = PowerSemiring(monoid)
    for _ in range(8):
        value = random_subset(rng, monoid.elements())
        below = downset_elements(DownSet(semiring, fs(value)))
        walked = antichain_of(semiring, [f for f in below if semiring.mul(f, f) == f])
        assert _maximal_idempotents(semiring, value, Budget()) == walked


def test_pbpol_trips_the_antichain_budget():
    morphism = pair_morphism(KTH3.format("a"), KTH3.format("b"))
    rho = canonical_covering_map(morphism)
    with pytest.raises(BudgetExceededError) as raised:
        pbpol_iopti(morphism, rho, ORACLE, Budget(antichain=1))
    assert str(raised.value) == "antichain budget exceeded (limit 1)"
    # Over Z/3 the letter image {0, 1} is not closed and holds the
    # idempotent 0, so the search below it visits two sets.
    semiring = PowerSemiring(CyclicMonoid(3))
    rho = RatingMap(AB, semiring, {"a": fs(0), "b": fs(0, 1)})
    with pytest.raises(BudgetExceededError) as raised:
        pbpol_iopti(transition_monoid([lang("~0")]), rho, ORACLE, Budget(antichain=1))
    assert str(raised.value) == "idempotent search budget exceeded (limit 1)"
    assert "_maximal_idempotents" in {frame.name for frame in raised.traceback}


# ---------------------------------------------------------------------------
# Cross-level inclusion


@settings(max_examples=25, deadline=None)
@given(drawn_instances(size_cap=6, max_states=4))
@example(random_instances(30, 5000, size_cap=6))
def test_level_inclusion_chain(pairs):
    """Imprints shrink as the level rises: the level-3/2 imprint lies in
    the level-1 one, which lies in the level-1/2 one."""
    for dfas in pairs:
        morphism, rho = covering_instance(dfas)
        pol = unpointed(pol_imprint(morphism, rho, ORACLE))
        bpol = bpol_opti(rho, bpol_iopti(rho, ORACLE))
        pbpol = unpointed(
            pbpol_pointed_imprint(morphism, rho, pbpol_iopti(morphism, rho, ORACLE))
        )
        assert imprint_covers(pol, bpol)
        assert imprint_covers(bpol, pbpol)


# ---------------------------------------------------------------------------
# The rule checkers fail on a wrong result


# A 2-element and a 7-element instance.
CHECKED_PAIRS = [("a*", "(a|b)*b(a|b)*"), (KTH2.format("a"), KTH2.format("b"))]


@pytest.mark.parametrize("first, second", CHECKED_PAIRS)
@pytest.mark.parametrize("engine, checker", [
    (pol_imprint, assert_pol_rules_stable),
    (pbpol_iopti, assert_pbpol_rules_stable),
])
def test_rule_checkers_fail_on_a_result_missing_a_maximum(first, second, engine, checker):
    morphism, rho = covering_instance([lang(first), lang(second)])
    result = engine(morphism, rho, ORACLE)
    checker(morphism, rho, ORACLE, result)
    for m in result.maximal:
        with pytest.raises(AssertionError):
            checker(morphism, rho, ORACLE, DownSet(result.space, result.maximal - {m}))


@pytest.mark.parametrize("first, second", CHECKED_PAIRS)
def test_filter_checker_fails_on_the_whole_carrier(first, second):
    _, rho = covering_instance([lang(first), lang(second)])
    with pytest.raises(AssertionError):
        assert_bpol_filter_stable(rho, ORACLE, DownSet(rho.semiring, fs(rho.semiring.top())))


def test_pol_checker_fails_on_an_unclosed_imprint(monkeypatch):
    morphism, rho = covering_instance([lang(regex) for regex in CHECKED_PAIRS[1]])
    assert morphism.size == 7
    monkeypatch.setattr(engines, "_close_products", lambda space, acc, old=frozenset(): 1)
    with pytest.raises(AssertionError):
        assert_pol_rules_stable(morphism, rho, ORACLE, pol_imprint(morphism, rho, ORACLE))


# ---------------------------------------------------------------------------
# Preconditions


def unary_morphism_with_binary_map():
    """A morphism over `a` and the covering map of one over `ab`."""
    binary = transition_monoid([lang("a*")])
    return transition_monoid([lang("a*", A)]), canonical_covering_map(binary)


# The precondition errors no query reaches, as the front end builds
# every argument over one alphabet: each call with the message it raises.
PRECONDITIONS = [
    pytest.param(lambda: pol_imprint(*unary_morphism_with_binary_map(), ORACLE),
                 "morphism and rating map use different alphabets", id="pol_imprint"),
    pytest.param(lambda: pbpol_iopti(*unary_morphism_with_binary_map(), ORACLE),
                 "morphism and rating map use different alphabets", id="pbpol_iopti"),
    pytest.param(lambda: transition_monoid([]), "need at least one DFA",
                 id="transition_monoid-empty"),
    pytest.param(lambda: transition_monoid([lang("a", A), lang("a")]), "alphabet mismatch",
                 id="transition_monoid-alphabets"),
    pytest.param(lambda: included(lang("a", A), lang("a")), "alphabet mismatch", id="included"),
    pytest.param(lambda: disjoint(lang("a", A), lang("a")), "alphabet mismatch", id="disjoint"),
]


@pytest.mark.parametrize("call, message", PRECONDITIONS)
def test_precondition_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
