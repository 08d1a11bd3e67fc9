"""Power semirings over multiplicative spaces, and the engines' order machinery.

Elements are opaque hashable values. A power semiring 2^M is finite
and idempotent, and its canonical order r <= s iff r + s = s (set
inclusion) underlies everything: downward-closed sets are stored as
antichains of their maximal elements, and the power-semiring carriers
the fixpoints live in are virtual (sets handled directly, never an
enumerated carrier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import or_
from typing import Iterable

from .errors import Budget
from .lang import explore


# ---------------------------------------------------------------------------
# Multiplicative spaces: `unit` and an associative `mult`, optionally an
# order `leq` under which `mult` is monotone, a `part` (see
# `PairSpace.part`), and `mult_sets(xs, ys)`, the canonical set of all
# products x * y, which a power semiring over the space takes in place of
# its own loop over the pairs (`MonoidMorphism.mult_sets` reads one
# product per pair from the Cayley rows).
# Power semirings are built over them, and antichains ordered by them.
# A power semiring is a space itself: `unit` is its one, `mult` its `mul`,
# and `leq` its canonical order.


class PairSpace:
    """M x R with componentwise product, ordered within equal first parts.

    The first factor is any multiplicative space: a transition monoid
    for the pointed imprints, a semiring for the auxiliary maps' pairs
    of a value and an inner set. The second is a semiring R, or for
    those inner sets an `AntichainSemiring`, which has no order: the
    auxiliary maps' pairs are only multiplied, never compared.
    (s, r) <= (s', r') iff s = s' and r <= r' in R: downward closure
    only ever moves the second coordinate. `part` names the first
    coordinate: pairs with different parts are incomparable, so
    antichains over the space keep one bucket per part.
    `mult` forms each distinct second-coordinate product, the costly
    one, once per instance and keeps it for the instance's lifetime: a
    pointed imprint keeps its space, an auxiliary map's space lasts one
    fixpoint round. So a set product over the space needs no grouping.
    The products are kept in one row per right operand, keyed by the
    left one, so no pair of keys is built or kept per product.
    It also returns one canonical object per distinct pair it forms,
    kept as long as the products, so equal pairs meet by identity.
    """

    def __init__(self, monoid, semiring):
        self.monoid = monoid
        self.semiring = semiring
        self.unit = (monoid.unit, semiring.one)
        self._seconds: dict = {}  # right second -> left second -> product
        self._pairs: dict = {}

    def mult(self, x, y):
        row = self._seconds.get(y[1])
        if row is None:
            row = self._seconds[y[1]] = {}
        st = row.get(x[1])
        if st is None:
            st = row[x[1]] = self.semiring.mul(x[1], y[1])
        pair = (self.monoid.mult(x[0], y[0]), st)
        return self._pairs.setdefault(pair, pair)

    def leq(self, x, y) -> bool:
        return x[0] == y[0] and self.semiring.leq(x[1], y[1])

    def part(self, x):
        return x[0]


class PowerSemiring:
    """2^M for a finite monoid M: union as addition, elementwise product.

    M is any multiplicative space; elements are frozensets of its
    elements. The carrier is virtual: no query enumerates it. As a
    space itself, its `mult` and `sum` go through `mul` and `add`.
    Products take the space's `mult_sets` when it has one. The level-1
    sums are formed in a `MaskSums`, each union as one int `|` (see
    `engines.admissible_totals`).
    """

    def __init__(self, monoid):
        self.monoid = monoid
        self.zero = frozenset()
        self.one = self.unit = frozenset({monoid.unit})
        self._mult_sets = getattr(monoid, "mult_sets", None)

    def add(self, x, y):
        return x | y

    def mul(self, x, y):
        if self._mult_sets is not None:
            return self._mult_sets(x, y)
        mult = self.monoid.mult
        return frozenset(mult(a, b) for a in x for b in y)

    def mult(self, x, y):
        return self.mul(x, y)

    def sum(self, items) -> frozenset:
        total = self.zero
        for x in items:
            total = self.add(total, x)
        return total

    def leq(self, x, y) -> bool:
        return x <= y

    def meet(self, x, y):
        return x & y

    def top(self) -> frozenset:
        return frozenset(self.monoid.elements())


class MaskSums:
    """Sums of some power-semiring values, on int bit masks.

    The elements the values hold are numbered, and a set of elements is
    the int with bit i set when it holds the i-th of them (`encode`,
    which drops the elements outside the numbering). A sum of sets is
    then `add`, one `|`, and `decode` turns a mask back into its set.
    Only sums are formed here: there is no product and no order.
    """

    add = staticmethod(or_)

    def __init__(self, values):
        self._elements = tuple(dict.fromkeys(chain.from_iterable(values)))
        self._numbered = frozenset(self._elements)
        self._bit = {a: 1 << i for i, a in enumerate(self._elements)}

    def encode(self, value) -> int:
        return sum(map(self._bit.__getitem__, self._numbered.intersection(value)))

    def decode(self, mask: int) -> frozenset:
        return frozenset([a for i, a in enumerate(self._elements) if mask >> i & 1])


class AntichainSemiring:
    """Products of sets over an ordered multiplicative space, kept as antichains.

    A value is the antichain of maxima of a downward-closed subset of
    the space; two exact sets with the same downward closure collapse to
    the same value here. Sound wherever consumers only read values
    through downward closure, because the space's product is monotone:
    maxima of a product of downsets are products of maxima. It is the
    inner structure of the auxiliary maps (see `rating.aux_bpol_map`),
    which only multiply their inner sets: it has a `one` and a `mul`,
    and no zero, sum or order.

    A product works row by row. The row of a space element a and a
    right operand y is the set of products a * b for b in y; it is
    formed once per instance, so `mul(x, y)` reads one row per element
    of x and unions them. Rows are kept for the instance's lifetime:
    the engines build one instance per auxiliary map, so they are
    dropped with the fixpoint round. Each row and each antichain
    `normal` returns is the one canonical object of its value for as
    long, so a row key, a row union and a set of values match equal
    values by identity. A union of at most one product is already an
    antichain: it is interned without the dominance scan of `normal`.
    The omega-power of a basis value multiplies each power by the same
    few letter values, and reads their rows back.
    """

    def __init__(self, space):
        self.space = space
        self.one = frozenset({space.unit})
        self._rows: dict = {}
        self._values: dict = {}

    def normal(self, items: Iterable) -> frozenset:
        value = antichain_of(self.space, items)
        return self._values.setdefault(value, value)

    def mul(self, x, y):
        mult, rows, values = self.space.mult, self._rows, self._values
        out: set = set()
        for a in x:
            row = rows.get((a, y))
            if row is None:
                row = frozenset([mult(a, b) for b in y])
                row = rows[a, y] = values.setdefault(row, row)
            out.update(row)
        if len(out) <= 1:  # already an antichain: no dominance scan
            value = frozenset(out)
            return values.setdefault(value, value)
        return self.normal(out)


# ---------------------------------------------------------------------------
# Order utilities


def omega_power(semiring: PowerSemiring, s, budget: Budget = Budget()):
    """The unique idempotent among the positive powers of s."""
    powers, k = power_cycle(semiring, s, budget)
    return powers[k - 1]


def power_cycle(semiring: PowerSemiring, s, budget: Budget = Budget()) -> tuple[list, int]:
    """The powers s, s^2, ... up to the first repeat, and the exponent of their idempotent.

    Successive powers with cycle detection (`explore` with the one
    generator s): once the n powers found give s^(n + 1) = s^i, the
    cycle has period c = n + 1 - i and its idempotent sits at the least
    multiple of c that is >= i. The powers kept until then draw on the
    `values` budget.
    """
    powers, moves, _ = explore(s, (s,), semiring.mul, budget, "values", "omega power")
    start = moves[-1][0] + 1  # powers[i] is s^(i + 1)
    period = len(powers) + 1 - start
    return powers, ((start + period - 1) // period) * period


def _one_part(x) -> None:
    """The `part` of a space without parts (see `PairSpace.part`): it has one."""
    return None


def _insert(bucket, x, leq) -> list | None:
    """The dominance rule of every antichain: `bucket` with x entered and the
    elements x dominates dropped, or None if an element dominates x."""
    for m in bucket:
        if leq(x, m):
            return None
    kept = [m for m in bucket if not leq(m, x)]
    kept.append(x)
    return kept


def antichain_of(space, items: Iterable) -> frozenset:
    """Maxima of `items` under the space's order, compared within each part.

    Inserts by `_insert`, as `Antichain.add` does, with no accumulator
    and no budget: a one-shot call keeps its buckets in a local dict.
    """
    leq, part = space.leq, getattr(space, "part", _one_part)
    buckets: dict = {}
    for x in items:
        key = part(x)
        bucket = _insert(buckets.get(key, ()), x, leq)
        if bucket is not None:
            buckets[key] = bucket
    return frozenset(chain.from_iterable(buckets.values()))


@dataclass(frozen=True)
class DownSet:
    """Downward-closed set given by the antichain of its maxima.

    Also the type of every imprint the engines compute: over the
    semiring itself at level 1, over a `PairSpace` at levels 1/2 and
    3/2, where it is `pointed`. `passes` counts what produced it: the
    generations of a product closure (see `engines._close_products`),
    or a fixpoint's rounds. It takes no part in equality.
    """

    space: object = field(compare=False)
    maximal: frozenset
    passes: int = field(default=0, compare=False)

    @property
    def pointed(self) -> bool:
        """Whether each element pairs a first coordinate with a value."""
        return isinstance(self.space, PairSpace)

    def __contains__(self, item) -> bool:
        return any(self.space.leq(item, m) for m in self.maximal)


class Antichain:
    """Mutable antichain accumulator used by the saturation loops.

    Elements are kept in one bucket per part of the space (see
    `PairSpace.part`), so a dominance check scans one bucket; each
    insertion is `_insert`'s, as in `antichain_of`. The antichain
    budget bounds the total size.
    """

    def __init__(self, space, items: Iterable = (), budget: Budget = Budget()):
        self.leq = space.leq
        self.part = getattr(space, "part", _one_part)
        self.budget = budget
        self._buckets: dict = {}
        self._size = 0
        for x in items:
            self.add(x)

    def add(self, x) -> bool:
        """Insert x; returns True if it was not already dominated."""
        key = self.part(x)
        bucket = self._buckets.get(key, ())
        kept = _insert(bucket, x, self.leq)
        if kept is None:
            return False
        self._buckets[key] = kept
        self._size += len(kept) - len(bucket)
        if self._size > self.budget.antichain:
            raise self.budget.exceeded("antichain")
        return True

    def __contains__(self, x) -> bool:
        return x in self._buckets.get(self.part(x), ())

    def __iter__(self):
        return chain.from_iterable(self._buckets.values())

    def __len__(self) -> int:
        return self._size

    def freeze(self) -> frozenset:
        return frozenset(self)


def add_closure(sums, xs: Iterable) -> frozenset:
    """All sums of non-empty subsets of xs, by the `add` of `sums`.

    Since addition is commutative and idempotent, closing under binary
    sums reaches every subset sum. The loop is all-pairs, each new sum
    added to every sum found so far, and draws on no budget. The
    level-1 engine closes int masks in a `MaskSums`: one `|` per sum.
    """
    todo = list(dict.fromkeys(xs))
    if not todo:
        raise ValueError("add_closure needs a non-empty collection")
    add = sums.add
    closed = set(todo)
    while todo:
        x = todo.pop()
        for y in list(closed):
            s = add(x, y)
            if s not in closed:
                closed.add(s)
                todo.append(s)
    return frozenset(closed)
