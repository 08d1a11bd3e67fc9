"""Shared error types and the resource budget.

Budget overruns are structured errors, never wrong answers: callers map
them to a dedicated exit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class BudgetExceededError(RuntimeError):
    """A construction grew past its configured resource budget."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} budget exceeded (limit {limit})")
        self.what = what
        self.limit = limit


# What each budget field bounds, as its overrun message names it.
_BOUNDS = {
    "states": "state",
    "monoid": "monoid",
    "antichain": "antichain",
    "iterations": "iteration",
    "values": "rating value",
}


@dataclass(frozen=True)
class Budget:
    """Every resource limit of a query, one field per kind of growth.

    `states` bounds the derivatives of a regex being compiled and the
    subset sequence of a length profile, `monoid` the transition monoid
    and the product states that an inclusion or disjointness check
    walks, `antichain` every antichain the engines keep, the sets the
    level-3/2 idempotent search visits and the candidates the separator
    search tries, `iterations` the rounds of a fixpoint, and `values`
    the powers of an omega power. Every loop that grows draws through
    one of three functions, the only ones that raise
    `exceeded(field)`: `lang.explore` for reachability walks and
    searches, `semiring.Antichain.add` for antichains, and `rounds` for
    fixpoint rounds. `refcheck`'s `--witness` separator search reports
    no overrun: past its candidates, or on a candidate that outgrows
    `states` or `monoid`, it ends with no witness. One loop draws on
    none yet: `semiring.add_closure`, the level-1 sums, as README says.
    """

    states: int = 4096
    monoid: int = 20000
    antichain: int = 50000
    iterations: int = 10000
    values: int = 20000

    def rounds(self) -> Iterator[int]:
        """The round numbers 1, 2, ... of a fixpoint, up to `iterations`.

        Asking for one round more raises `exceeded("iterations")`.
        """
        yield from range(1, self.iterations + 1)
        raise self.exceeded("iterations")

    def exceeded(self, field: str, what: str | None = None) -> BudgetExceededError:
        """The error for growing past `field`; `what` renames the bounded thing."""
        return BudgetExceededError(what or _BOUNDS[field], getattr(self, field))


class UnsupportedError(ValueError):
    """Requested a basis or level that is reserved but not implemented."""


class InputError(ValueError):
    """A caller's input is malformed: the query itself is at fault."""


class RegexSyntaxError(InputError):
    """Malformed regular expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
