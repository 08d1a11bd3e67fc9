"""Decision procedures for low levels of concatenation hierarchies.

The package answers separation and membership queries for regular
languages at levels 0, 1/2, 1, and 3/2 of the hierarchy whose basis
consists of Boolean combinations of length-residue languages, and
covering queries at the levels above 0.
Queries reduce to fixpoint computations over finite idempotent
semirings; `decide` holds the user-facing operations and `cli` the
command-line front end. The package root exports the library API the
README documents; everything else is reached through its module.
"""

from .basis import mod_cover_oracle
from .decide import LEVELS, Verdict, coverable, member, separable
from .errors import Budget, BudgetExceededError, RegexSyntaxError, UnsupportedError
from .lang import Alphabet, compile_regex, parse_regex

__all__ = [
    "Alphabet",
    "Budget",
    "BudgetExceededError",
    "LEVELS",
    "RegexSyntaxError",
    "UnsupportedError",
    "Verdict",
    "compile_regex",
    "coverable",
    "member",
    "mod_cover_oracle",
    "parse_regex",
    "separable",
]
