"""The three fixpoint engines behind the level deciders.

Each engine computes an optimal imprint: the downward-closed set of
semiring values (or monoid-value pairs) that every cover built from
the corresponding language class must hit. Level 1/2 is a least
fixpoint seeded by letters and the basis approximation; level 1 is a
greatest fixpoint filtered through an auxiliary rating map; level 3/2
is a least fixpoint whose rules are re-evaluated against its own
auxiliary map as the set grows. All state is kept as antichains of
maximal elements, and every engine returns a `DownSet`.
"""

from __future__ import annotations

from .basis import BasisOracle
from .errors import Budget
from .lang import MonoidMorphism, explore
from .rating import RatingMap, aux_bpol_map, aux_pbpol_map
from .semiring import (
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


def _close_products(space, acc: Antichain, old: frozenset = frozenset()):
    """Saturate an antichain under the space's product, one generation at a time.

    The antichain at the call holds the generators G. The closure of G
    under a monotone product is the downset of the words over G, and
    every word is a shorter word times one letter of G (right Cayley
    graph enumeration, after Froidure and Pin). So each element that
    enters the antichain is multiplied on the right by generators,
    once: generation k multiplies what generation k - 1 added. An
    element dominated since it entered is skipped, as what dominates it
    entered after it and is multiplied in its stead.

    `old` names elements whose downset is closed under the product and
    lies in that of G: the antichain an earlier call returned, or a seed
    known to be idempotent. An element whose last factor is in `old` (a
    generator is its own last factor) is multiplied by the fresh
    generators only. What that skips is dominated when it would be
    formed. For h and g in `old`, h * g lies below some o in `old`, and
    o below some generator g'. So a generator h in `old` has h * g in
    the downset from the start. An element x = z * h that entered later
    has x * g <= z * g', and z was multiplied a generation before x:
    by induction on the generation, z * g' was formed then, or already
    lay in the downset. So the generations, the antichains they leave
    and the budget trips are those of a closure that forms every
    product. Returns the number of generations.
    """
    # One step per generator g: g, and the right factors of what ends in g.
    fresh: list = []
    steps: list = []
    for g in acc:
        steps.append((g, fresh if g in old else steps))
        if g not in old:
            fresh.append(steps[-1])
    frontier = steps
    passes = 0
    while True:
        passes += 1
        entered = []
        for x, factors in frontier:
            if x not in acc:
                continue
            for g, after in factors:
                y = space.mult(x, g)
                if acc.add(y):
                    entered.append((y, after))
        if not entered:
            return passes
        frontier = entered


def _saturate(space, seeds, budget: Budget, old: frozenset = frozenset()) -> DownSet:
    """Least downset of the space holding the seeds and closed under its product.

    `old` names seeds already closed under the product (see `_close_products`).
    """
    acc = Antichain(space, seeds, budget)
    passes = _close_products(space, acc, old)
    return DownSet(space, acc.freeze(), passes)


# ---------------------------------------------------------------------------
# Level 1/2


def pol_imprint(
    morphism: MonoidMorphism,
    rho: RatingMap,
    oracle: BasisOracle,
    budget: Budget = Budget(),
) -> DownSet:
    """Least pair set for level 1/2: the pointed imprint of marked products.

    Seeded with the basis approximation attached to the unit and the
    letter pairs, and closed under downward closure (implicit in the
    antichain) and componentwise product. The empty word needs no seed:
    rho(e) <= iopti(rho), as every basis language contains it.

    The basis pair is idempotent, as iopti(rho) = omega + 1 is (see
    `basis.mod_iopti`): (omega + 1)^2 = omega^2 + omega + 1 = omega + 1.
    So the closure is told that it is closed, and does not multiply a
    product ending in it by it again.
    """
    if morphism.alphabet != rho.alphabet:
        raise ValueError("morphism and rating map use different alphabets")
    basis_pair = (morphism.unit, oracle.iopti(rho, budget))
    seeds = [basis_pair] + [(morphism.letter_image[a], rho.letter_image[a]) for a in rho.alphabet]
    return _saturate(PairSpace(morphism, rho.semiring), seeds, budget, frozenset({basis_pair}))


# ---------------------------------------------------------------------------
# Level 1


def admissible_totals(pairs, closures: dict) -> frozenset:
    """Sums realizable by pair families whose total sits below every chosen set.

    A total t = r_1 + ... + r_k over pairs (r_i, U_i) counts when t
    lies in the downset of each chosen U_i. Families are reduced to
    subsets: addition is commutative and idempotent, so a family's sum
    equals its support's sum, and the side condition only depends on
    the support and the total. Hence t qualifies exactly when t is an
    additive combination of the pairs that tolerate it, that is, when
    the tolerating r with r <= t sum to t: a combination reaching t
    uses only such r, and their full sum lies between it and t.

    The values are power-semiring values, summed on int bit masks in a
    `MaskSums` over the elements they hold: the candidate totals are
    the `add_closure` of their masks, which depends on their set alone.
    Each set v in U is coded the same way, restricted to those
    elements: every total lies within them, so t <= v holds as before.
    On masks r <= t is `not r & ~t`, and the tolerating values are
    summed by one `|`. The empty total is the mask 0, and it counts
    when some pair tolerates it, as any total does. Only the valid
    totals are decoded.

    `closures` maps a frozenset of values to their `MaskSums` and the
    closure of their masks: a closure found there is read, not formed
    again, and one formed is stored there. The caller owns the dict and
    so decides how long closures live.
    """
    pairs = list(pairs)
    if not pairs:
        return frozenset()
    key = frozenset(r for r, _ in pairs)
    if key not in closures:
        masks = MaskSums(key)
        closures[key] = masks, add_closure(masks, map(masks.encode, key))
    masks, closure = closures[key]
    code = masks.encode
    # Each v in U as the complement of its mask: t <= v is `not t & off`.
    pairs = [(code(r), [~code(v) for v in u]) for r, u in pairs]
    valid = []
    for t in closure:
        total, tolerated = 0, False
        for r, offs in pairs:
            if not r & ~t and any(not t & off for off in offs):
                total |= r
                tolerated = True
        if tolerated and total == t:
            valid.append(masks.decode(t))
    return frozenset(valid)


def bpol_iopti(rho: RatingMap, oracle: BasisOracle, budget: Budget = Budget()) -> DownSet:
    """Greatest value set for level 1: survivors of the auxiliary-map filter.

    Starting from the full semiring, repeatedly keep the values s
    admitting a family of auxiliary-approximation pairs whose sum
    dominates s and lies in every chosen pair's set; the descending
    sequence stabilizes on the answer. The filter condition is
    downward closed in s, so the set is a downset throughout, kept as
    the antichain of its maxima. The semiring is a power semiring,
    which meets by intersection: the filtered set is an intersection of
    downsets, whose maxima are the pairwise meets of the operands'
    maxima, gathered in an `Antichain` within the antichain budget.
    Each round builds its auxiliary map over a fresh inner semiring, so
    the products it keeps last one round.

    The pairs' values r are rho-images of words and do not depend on
    the round's set; only their sets U do. So the candidate totals, the
    sums of the values, are formed once per distinct set of values: a
    dict keyed by that frozenset keeps the `add_closure` of their masks
    for the rest of the call (see `admissible_totals`) and is dropped
    when it returns.
    """
    semiring = rho.semiring
    maxima = frozenset({semiring.top()})
    closures: dict = {}
    for iterations in budget.rounds():
        eta = aux_bpol_map(rho, maxima, AntichainSemiring(semiring))
        valid = admissible_totals(oracle.iopti(eta, budget), closures)
        meets = {semiring.meet(m, t) for m in maxima for t in valid}
        new_maxima = Antichain(semiring, meets, budget).freeze()
        if new_maxima == maxima:
            return DownSet(semiring, maxima, iterations)
        maxima = new_maxima


def bpol_opti(rho: RatingMap, iopti: DownSet, budget: Budget = Budget()) -> DownSet:
    """Full level-1 imprint over all words: close iopti with the letter images.

    Least superset of the level-1 approximation containing every word
    image, closed under downward closure and product. The letters
    generate every nonempty word's image; `iopti` holds the empty
    word's, as rho(e) <= iopti(rho). No seed is passed as closed under
    the product (see `_close_products`): the level-1 approximation is
    not known to be.
    """
    seeds = list(iopti.maximal) + [rho.letter_image[a] for a in rho.alphabet]
    return _saturate(rho.semiring, seeds, budget)


# ---------------------------------------------------------------------------
# Level 3/2


def _maximal_idempotents(semiring: PowerSemiring, value, budget: Budget) -> frozenset:
    """Maxima of the multiplicatively idempotent sets below F = `value`.

    An idempotent f is closed under the product and f = f^n, so f lies
    below the omega power of every closed set above it. If xy leaves F
    for some x, y in F, no closed set holds both: each f below F lies
    below F - {x} or F - {y}. `explore` branches so within the antichain
    budget (letter i drops the i-th of the first such pair, and fixes a
    closed set); the answer is the maxima of the omega powers of the
    closed sets reached. A nonempty idempotent holds an idempotent of
    the monoid, so if F holds none, only the empty set is one.

    It never walks all the subsets of F, so a query may answer where
    such a walk would run out: level-3/2 separation of
    `(a(a|b)a((b)*|a))*` from `a` (361 monoid elements) meets values
    of up to 16 elements, each closed if it holds an idempotent, so the
    search visits it alone where a walk would visit 65,536 subsets.
    """
    mult = semiring.monoid.mult
    if all(mult(x, x) != x for x in value):
        return frozenset({semiring.zero})

    def step(f, i):
        pair = next(((x, y) for x in f for y in f if mult(x, y) not in f), None)
        return f if pair is None else f - {pair[i]}

    sets, moves, _ = explore(value, (0, 1), step, budget, "antichain", "idempotent search")
    closed = [sets[i] for i, move in enumerate(moves) if move[0] == i]
    return antichain_of(semiring, [omega_power(semiring, f, budget) for f in closed])


def pbpol_iopti(
    morphism: MonoidMorphism,
    rho: RatingMap,
    oracle: BasisOracle,
    budget: Budget = Budget(),
) -> DownSet:
    """Least pair set for level 3/2, saturated against its own auxiliary map.

    From the empty set, repeatedly: rebuild the auxiliary map from the
    current set, take the basis approximation of it, and apply its
    pairs (r, T) by absorbing T and, for every multiplicatively
    idempotent pair (e, f) below T, adding (e, f * (1 + r) * f); close
    under product. Every rule is monotone in the set, so this chaotic
    iteration reaches the least fixpoint regardless of order. As at
    level 1, a round builds its auxiliary map, over a fresh inner
    semiring, from the antichain the previous round froze, and the
    fixpoint is reached when a round freezes that antichain again.
    Since f * f = f, the rule's value is f + f * r * f.

    The round's closure is told that the previous maxima S and every
    element of every T form a part closed under the product (see
    `_close_products`), so it multiplies by the idempotent rule's
    outputs and not by that part. The downset of the part is closed:
    - S is, as the previous round closed it (S is empty at first).
    - T * T' lies below a T'' of the same round: the basis value is
      omega + 1 over the auxiliary map, and the omega power is
      idempotent, so the product of two of its pairs is one of its
      pairs. The `+ 1` pair's T is the unit.
    - S * T and T * S lie below T: each T is a product of factors
      S * m * S, and S * S lies below S.

    The per-round closure is kept for its cost, not for the answer:
    rounds of the other rules alone reached the same maxima on every
    instance tried, but not the same work. Level-3/2 membership of
    `(a(a|b)a(b)*)*`, a 41-element monoid, forms 38,066 pair products
    with it and 284,207 without it, and a 361-element query that
    answers within 75 MB with it ran past 4 GB without it.

    The idempotent rule walks the maxima (e, F) of T, not all of the
    downset: a pair below (e, F) has part e, so none is idempotent
    unless e is. Its image is monotone in f, so only the maximal
    idempotents f below F need applying; the others' images are
    dominated. Those depend on F alone, so they are found once per
    call, by a search over the closed subsets of F in a power semiring
    (`_maximal_idempotents`), and reused in every round.
    """
    if morphism.alphabet != rho.alphabet:
        raise ValueError("morphism and rating map use different alphabets")
    semiring = rho.semiring
    space = PairSpace(morphism, semiring)
    acc = Antichain(space, budget=budget)
    idempotents: dict = {}
    maxima: frozenset = frozenset()
    for iterations in budget.rounds():
        eta = aux_pbpol_map(morphism, rho, maxima, AntichainSemiring(space))
        closed = set(maxima)
        for r, t_value in oracle.iopti(eta, budget):
            closed.update(t_value)
            for e, upper in t_value:
                acc.add((e, upper))
                if morphism.mult(e, e) != e:
                    continue
                maximal = idempotents.get(upper)
                if maximal is None:
                    maximal = idempotents[upper] = _maximal_idempotents(semiring, upper, budget)
                for f in maximal:
                    acc.add((e, semiring.add(f, semiring.mul(semiring.mul(f, r), f))))
        _close_products(space, acc, closed)
        new_maxima = acc.freeze()
        if new_maxima == maxima:
            return DownSet(space, maxima, iterations)
        maxima = new_maxima


def pbpol_pointed_imprint(
    morphism: MonoidMorphism,
    rho: RatingMap,
    iopti: DownSet,
    budget: Budget = Budget(),
) -> DownSet:
    """Full level-3/2 pointed imprint: close iopti with the letter pairs.

    `iopti` is what `pbpol_iopti` returned. It holds the empty word's
    pair, as rho(e) <= iopti(rho), and that fixpoint ends on a round
    that changed nothing, its product closure included, so its maxima
    are already closed under the product. The closure is told so (see
    `_close_products`), and does not multiply what ends in one of them
    by another. It runs in the fixpoint's pair space, so the products
    the rounds formed are read back, not formed again.
    """
    seeds = list(iopti.maximal)
    seeds += [(morphism.letter_image[a], rho.letter_image[a]) for a in rho.alphabet]
    return _saturate(iopti.space, seeds, budget, iopti.maximal)
