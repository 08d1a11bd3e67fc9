"""Regular-language front end: regexes, DFAs, transition monoids.

Input languages arrive as regular expressions over a fixed alphabet,
are compiled to minimal complete DFAs, and a family of DFAs sharing an
alphabet is folded into a single monoid morphism (the transition monoid
of their product automaton) recognizing every language in the family.

Regex grammar (whitespace ignored):

    expr    := term ('|' term)*          union, lowest precedence
    term    := factor ('&' factor)*      intersection
    factor  := item+                     juxtaposition = concatenation
    item    := '~' item | atom ('*'|'+')*
    atom    := letter | '0' | 'e' | '(' expr ')'

`0` is the empty language, `e` the empty word, `~` complement (so `~a*`
reads as `~(a*)` and `~ab` as `(~a)b`). Since `e` is grammar syntax it
cannot be used as an alphabet letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import Budget, InputError, RegexSyntaxError

_RESERVED = frozenset("0e")


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of single-character letters, fixed for a whole query."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise InputError("alphabet must be non-empty")
        seen = set()
        for a in self.letters:
            if len(a) != 1 or not ("a" <= a <= "z"):
                raise InputError(f"alphabet letter {a!r} must be a lowercase ascii letter")
            if a in _RESERVED:
                raise InputError(f"letter {a!r} is reserved regex syntax")
            if a in seen:
                raise InputError(f"duplicate alphabet letter {a!r}")
            seen.add(a)

    @classmethod
    def of(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise InputError(f"letter {letter!r} not in alphabet {''.join(self.letters)!r}") from None

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


# ---------------------------------------------------------------------------
# Regex AST


class Regex:
    """Base class for regex AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Eps(Regex):
    pass


@dataclass(frozen=True)
class Sym(Regex):
    letter: str


@dataclass(frozen=True)
class Alt(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class And(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Seq(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex


@dataclass(frozen=True)
class Not(Regex):
    inner: Regex


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str):
        raise RegexSyntaxError(message, self.pos)

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> Regex:
        """The AST of the whole text, parsed without recursion: `groups`
        holds the whole text's group and one per open parenthesis, and
        `pending` the number of `~` before each open parenthesis."""
        groups: list[_Group] = [_Group()]
        pending: list[int] = []
        while True:
            nots = 0
            c = self.peek()
            while c == "~":
                self.pos += 1
                nots += 1
                c = self.peek()
            if c == "(":
                self.pos += 1
                groups.append(_Group())
                pending.append(nots)
                continue
            node = self.atom(c)
            while True:
                c = self.peek()
                while c == "*" or c == "+":
                    node = Star(node) if c == "*" else Plus(node)
                    self.pos += 1
                    c = self.peek()
                for _ in range(nots):
                    node = Not(node)
                groups[-1].items.append(node)
                if c != ")" or not pending:
                    break
                self.pos += 1
                node = groups.pop().close()
                nots = pending.pop()
            if c is None:
                if pending:
                    self.error("unbalanced parenthesis")
                return groups[0].close()
            if c == ")":
                self.error(f"unexpected {c!r}")
            if c in "|&":
                self.pos += 1
                groups[-1].end_factor(c == "|")

    def atom(self, c: str | None) -> Regex:
        """The letter, `0` or `e` that `c`, the next character, starts."""
        if c is None:
            self.error("unexpected end of input")
        if c == "0":
            node = Empty()
        elif c == "e":
            node = Eps()
        elif "a" <= c <= "z":
            if c not in self.alphabet:
                self.error(f"letter {c!r} outside alphabet")
            node = Sym(c)
        else:
            self.error(f"unexpected {c!r}")
        self.pos += 1
        return node


class _Group:
    """A group being parsed: its terms, the current term's factors, the current factor's items."""

    def __init__(self):
        self.terms: list[Regex] = []
        self.factors: list[Regex] = []
        self.items: list[Regex] = []

    def end_factor(self, end_term: bool) -> None:
        self.factors.append(_fold(Seq, self.items))
        self.items = []
        if end_term:
            self.terms.append(_fold(And, self.factors))
            self.factors = []

    def close(self) -> Regex:
        self.end_factor(True)
        return _fold(Alt, self.terms)


def _fold(node: type, parts: list[Regex]) -> Regex:
    """`parts` joined by the binary `node`, grouped to the left."""
    out = parts[0]
    for p in parts[1:]:
        out = node(out, p)
    return out


def parse_regex(text: str, alphabet: Alphabet) -> Regex:
    """Parse `text` into an AST; letters must belong to `alphabet`."""
    if not text.strip():
        raise RegexSyntaxError("empty expression", 0)
    return _Parser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# Reachability


def explore(start, letters, step, budget: Budget, field: str, what: str | None = None):
    """Number the states reachable from `start` under `step`, breadth first.

    Returns (states, transitions, tree): `states[0]` is `start`,
    `transitions[i][l]` is the number of `step(states[i], letters[l])`,
    and `tree[j - 1]` is the pair (i, l) whose step first found state
    j, so i < j. This is the right Cayley graph enumeration of Froidure
    and Pin (1997) when the states are products and `step` multiplies
    by a generator. The states draw on `budget`'s `field`:
    `exceeded(field, what)` is raised when one more than it allows
    turns up.
    """
    limit = getattr(budget, field)
    number = {start: 0}
    states = [start]
    transitions = []
    tree = []
    for i, state in enumerate(states):  # grows as new states are found
        row = []
        for l, letter in enumerate(letters):
            nxt = step(state, letter)
            j = number.get(nxt)
            if j is None:
                if len(states) >= limit:
                    raise budget.exceeded(field, what)
                j = number[nxt] = len(states)
                states.append(nxt)
                tree.append((i, l))
            row.append(j)
        transitions.append(tuple(row))
    return states, transitions, tree


# ---------------------------------------------------------------------------
# DFAs


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: `transitions[state][letter_index]` is total."""

    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        n = len(self.transitions)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        width = len(self.alphabet)
        for row in self.transitions:
            if len(row) != width:
                raise ValueError("transition row does not match alphabet")
            if row and (min(row) < 0 or max(row) >= n):
                raise ValueError("transition target out of range")
        if self.accepting and (min(self.accepting) < 0 or max(self.accepting) >= n):
            raise ValueError("accepting state out of range")

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, letter: str) -> int:
        return self.transitions[state][self.alphabet.index(letter)]

    def run(self, word: str) -> int:
        q = self.initial
        for a in word:
            q = self.step(q, a)
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.accepting


def minimize(dfa: Dfa) -> Dfa:
    """Minimal complete DFA of an `explore`-numbered one, numbered the same way.

    The input's states must be numbered as `explore` numbers them:
    breadth first from state 0, letters in alphabet order, every state
    reachable. Hopcroft's partition refinement (1971), in O(n k log n)
    for n states and k letters: a block splits each block whose states
    differ on whether a letter leads into it, and after a split only
    the smaller half need split others. Blocks are numbered by their
    least state, which is the breadth-first order of the quotient: a
    block's least state is first reached from the least state of
    another block. The canonical numbering makes minimal DFAs of equal
    languages structurally equal, so `==` doubles as a language-equality
    check on minimized values.
    """
    rows = dfa.transitions
    preimages = [[[] for _ in rows] for _ in dfa.alphabet]
    for q, row in enumerate(rows):
        for l, t in enumerate(row):
            preimages[l][t].append(q)
    block_of = [int(q in dfa.accepting) for q in range(len(rows))]
    blocks = [{q for q, f in enumerate(block_of) if f == accepts} for accepts in (0, 1)]
    waiting = {int(len(blocks[1]) < len(blocks[0]))}  # the smaller block
    while waiting:
        splitter = list(blocks[waiting.pop()])
        for preimage in preimages:
            hit: dict[int, list[int]] = {}
            for q in splitter:
                for p in preimage[q]:
                    hit.setdefault(block_of[p], []).append(p)
            for b, inside in hit.items():
                rest = blocks[b]
                if len(inside) == len(rest):
                    continue
                new = len(blocks)
                blocks.append(set(inside))
                rest.difference_update(inside)
                for p in inside:
                    block_of[p] = new
                waiting.add(new if b in waiting or len(inside) <= len(rest) else b)
    number: dict[int, int] = {}
    least = []  # each block's least state, in the order of the blocks' numbers
    for q, b in enumerate(block_of):
        if b not in number:
            number[b] = len(least)
            least.append(q)
    transitions = tuple(tuple(number[block_of[t]] for t in rows[q]) for q in least)
    accepting = frozenset(i for i, q in enumerate(least) if q in dfa.accepting)
    return Dfa(dfa.alphabet, transitions, 0, accepting)


def complement(x: Dfa) -> Dfa:
    # Flipping the accepting set of a complete minimal DFA keeps it minimal.
    return Dfa(x.alphabet, x.transitions, x.initial, frozenset(range(x.num_states)) - x.accepting)


def _reachable_pairs(x: Dfa, y: Dfa, budget: Budget) -> list[tuple[int, int]]:
    """State pairs of the product automaton reachable from the initial pair.

    Found by `explore`, drawing on the `monoid` budget as product states.
    """
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    xs, ys = x.transitions, y.transitions

    def step(pair, l):
        return xs[pair[0]][l], ys[pair[1]][l]

    start = (x.initial, y.initial)
    pairs, _, _ = explore(start, range(len(x.alphabet)), step, budget, "monoid", "product state")
    return pairs


def included(x: Dfa, y: Dfa, budget: Budget = Budget()) -> bool:
    return all(q in y.accepting for p, q in _reachable_pairs(x, y, budget) if p in x.accepting)


def disjoint(x: Dfa, y: Dfa, budget: Budget = Budget()) -> bool:
    pairs = _reachable_pairs(x, y, budget)
    return not any(p in x.accepting and q in y.accepting for p, q in pairs)


def is_empty(x: Dfa) -> bool:
    return disjoint(x, x)


def equivalent(x: Dfa, y: Dfa) -> bool:
    return included(x, y) and included(y, x)


def iter_short_words(dfa: Dfa, max_len: int) -> Iterator[str]:
    """Accepted words of length <= max_len, ordered by length then letters."""
    layer = [("", dfa.initial)]
    for length in range(max_len + 1):
        yield from (w for w, q in layer if q in dfa.accepting)
        if length < max_len:
            layer = [(w + a, dfa.transitions[q][l]) for w, q in layer for l, a in enumerate(dfa.alphabet)]


def short_words(dfa: Dfa, max_len: int) -> list[str]:
    """Accepted words of length <= max_len, ordered by length then letters."""
    return list(iter_short_words(dfa, max_len))


# ---------------------------------------------------------------------------
# Regex compilation


def compile_regex(regex: Regex, alphabet: Alphabet, budget: Budget = Budget()) -> Dfa:
    """Minimal complete DFA for `regex`; raises on state-budget overrun.

    The states are the regex's derivatives (Brzozowski 1964): the
    derivative of a language by a letter a is the set of words w with
    aw in it, and a word is accepted from a state when the state's term
    is nullable. Derivatives are found breadth first from the regex, at
    most `budget.states` of them, and the automaton is minimized once.
    Terms are numbered afresh in each call, so nothing is kept between
    calls.
    """
    terms = _Terms(len(alphabet))
    root = terms.of_regex(regex, alphabet)
    found, rows, _ = explore(root, range(len(alphabet)), terms.derive, budget, "states")
    accepting = frozenset(q for q, term in enumerate(found) if terms.nullable[term])
    return minimize(Dfa(alphabet, tuple(rows), 0, accepting))


# The kinds of term: `0`, `e`, a letter, `|`, `&`, concatenation, `*`, `~`.
_EMPTY, _EPS, _SYM, _ALT, _AND, _SEQ, _STAR, _NOT = range(8)


class _Terms:
    """The regex terms of one compilation, interned as integers.

    Term t is `nodes[t]`, a kind with its operands: a frozenset of terms
    for `|` and `&`, a tuple of terms for the rest (a letter's index for
    a letter). The constructors normalize, so terms equal modulo
    associativity, commutativity and idempotence of `|` and `&` get one
    number, which makes a regex's derivatives finitely many. `0` and
    `~0` are the unit and zero of `|` (the zero and unit of `&`), `0`
    and `e` are absorbed in concatenation, `~~r` is r and `(r*)*` is r*.
    Integers, because Python does not cache the hash of a nested tuple.
    """

    def __init__(self, nletters: int):
        self.index: dict = {}
        self.nodes: list = []
        self.nullable: list[bool] = []
        self.derivatives: list[dict[int, int]] = [{} for _ in range(nletters)]
        self.empty = self.intern((_EMPTY, ()), False)
        self.eps = self.intern((_EPS, ()), True)
        self.full = self.intern((_NOT, (self.empty,)), True)

    def intern(self, node: tuple, nullable: bool) -> int:
        """The number of `node`, whose operands are numbered already."""
        t = self.index.get(node)
        if t is None:
            t = self.index[node] = len(self.nodes)
            self.nodes.append(node)
            self.nullable.append(nullable)
        return t

    def boolean(self, kind: int, operands: Iterable[int]) -> int:
        """The `|` (kind `_ALT`) or `&` (kind `_AND`) of `operands`, flattened."""
        unit, zero = (self.empty, self.full) if kind == _ALT else (self.full, self.empty)
        members = set()
        for t in operands:
            node = self.nodes[t]
            if node[0] == kind:
                members.update(node[1])
            else:
                members.add(t)
        if zero in members:
            return zero
        members.discard(unit)
        if len(members) <= 1:
            return members.pop() if members else unit
        nullable = map(self.nullable.__getitem__, members)
        return self.intern((kind, frozenset(members)), (any if kind == _ALT else all)(nullable))

    def seq(self, x: int, y: int) -> int:
        if self.empty in (x, y):
            return self.empty
        if self.eps in (x, y):
            return y if x == self.eps else x
        return self.intern((_SEQ, (x, y)), self.nullable[x] and self.nullable[y])

    def star(self, x: int) -> int:
        if x in (self.empty, self.eps):
            return self.eps
        return x if self.nodes[x][0] == _STAR else self.intern((_STAR, (x,)), True)

    def negate(self, x: int) -> int:
        kind, operands = self.nodes[x]
        return operands[0] if kind == _NOT else self.intern((_NOT, (x,)), not self.nullable[x])

    def of_regex(self, regex: Regex, alphabet: Alphabet) -> int:
        """The term of `regex`, built children first, left to right,
        from an explicit stack, so any depth of nesting compiles."""
        build = {
            Empty: lambda: self.empty,
            Eps: lambda: self.eps,
            Alt: lambda x, y: self.boolean(_ALT, (x, y)),
            And: lambda x, y: self.boolean(_AND, (x, y)),
            Seq: self.seq,
            Star: self.star,
            Plus: lambda x: self.seq(x, self.star(x)),
            Not: self.negate,
        }
        order = []  # each node with its number of children, parents first
        todo = [regex]
        while todo:
            r = todo.pop()
            if type(r) not in build and not isinstance(r, Sym):
                raise TypeError(f"not a regex node: {r!r}")
            children = (r.left, r.right) if isinstance(r, (Alt, And, Seq)) else ()
            children = (r.inner,) if isinstance(r, (Star, Plus, Not)) else children
            order.append((r, len(children)))
            todo.extend(children)
        built: list[int] = []  # the terms of the nodes whose parents are not built
        for r, arity in reversed(order):
            args = built[len(built) - arity :]
            del built[len(built) - arity :]
            if isinstance(r, Sym):
                built.append(self.intern((_SYM, (alphabet.index(r.letter),)), False))
            else:
                built.append(build[type(r)](*args))
        return built[0]

    def derive(self, term: int, l: int) -> int:
        """The derivative of `term` by letter `l`, memoized. Those of its
        operands come first, from an explicit stack, so deep terms derive."""
        memo = self.derivatives[l]
        todo = [term]
        while todo:
            t = todo[-1]
            if t in memo:
                todo.pop()
                continue
            kind, operands = self.nodes[t]
            needs = () if kind == _SYM else operands
            if kind == _SEQ and not self.nullable[operands[0]]:
                needs = operands[:1]
            missing = [u for u in needs if u not in memo]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            if kind == _SYM:
                d = self.eps if operands[0] == l else self.empty
            elif kind == _ALT or kind == _AND:
                d = self.boolean(kind, [memo[u] for u in operands])
            elif kind == _SEQ:
                # d(xy) = d(x)y, or d(x)y | d(y) when x accepts the empty word
                x, y = operands
                d = self.seq(memo[x], y)
                if self.nullable[x]:
                    d = self.boolean(_ALT, (d, memo[y]))
            elif kind == _STAR:
                d = self.seq(memo[operands[0]], t)
            elif kind == _NOT:
                d = self.negate(memo[operands[0]])
            else:
                d = self.empty
            memo[t] = d
        return memo[term]


# ---------------------------------------------------------------------------
# Transition monoids


class MonoidMorphism:
    """Transition monoid of a product automaton, as a morphism.

    Elements are integer indices; index 0 is the unit. The monoid is
    kept as its right Cayley graph: `right[m][l]` is m followed by the
    l-th letter, and `tree` the spanning tree of the enumeration (see
    `explore`), which spells out `word_for[m]`, the
    length-lexicographically least word mapping to m. `accept_sets[i]`
    holds the elements sending the initial product state into a
    configuration accepting for the i-th input DFA, so a word w lies in
    L_i iff its image lies there.

    Multiplication reads Cayley rows: `row(i)` holds the product of i
    with every element, read off the graph the first time it is needed
    (i * m is i * m' followed by a letter, for the tree's parent m' of
    m) and kept for the morphism's lifetime. Rows are filled only for
    the left factors in use, so a large monoid whose products are never
    asked costs nothing, but the worst case is |M|^2 integers.
    """

    def __init__(self, alphabet, right, tree, accept_sets):
        self.alphabet = alphabet
        self._right = right
        self._tree = tree
        self.letter_image = dict(zip(alphabet, right[0]))
        self.accept_sets = tuple(frozenset(f) for f in accept_sets)
        word_for = [""]
        for parent, l in tree:
            word_for.append(word_for[parent] + alphabet.letters[l])
        self.word_for = tuple(word_for)
        self.unit = 0
        self._rows: list[tuple[int, ...] | None] = [None] * len(right)

    @property
    def size(self) -> int:
        return len(self._right)

    def __len__(self) -> int:
        return self.size

    def elements(self) -> range:
        return range(self.size)

    def row(self, i: int) -> tuple[int, ...]:
        """The products of element i followed by each element, by index."""
        row = self._rows[i]
        if row is None:
            right, row = self._right, [i]
            for parent, l in self._tree:
                row.append(right[row[parent]][l])
            row = self._rows[i] = tuple(row)
        return row

    def mult(self, i: int, j: int) -> int:
        """Index of element i followed by element j."""
        row = self._rows[i]
        if row is None:
            row = self.row(i)
        return row[j]

    def mult_sets(self, xs, ys) -> frozenset:
        """All products x * y with x in xs and y in ys."""
        return frozenset([row[y] for row in map(self.row, xs) for y in ys])


def transition_monoid(dfas: list[Dfa], budget: Budget = Budget()) -> MonoidMorphism:
    """Close the letter transformations of the product DFA under composition.

    The product-state space is restricted to states reachable from the
    tuple of initials; transformations act on that set. Both are found
    by `explore`, and both draw on the `monoid` budget: each reachable
    state is the image of the initial one under an element, so there
    are never more states than elements. The closure starts from the
    identity and appends generators on the right, so `word_for[m]` is
    the length-lexicographically least word mapping to m (letters
    compared in alphabet order).
    """
    if not dfas:
        raise ValueError("need at least one DFA")
    alphabet = dfas[0].alphabet
    if any(d.alphabet != alphabet for d in dfas):
        raise ValueError("alphabet mismatch")

    def step(state, l):
        return tuple(d.transitions[q][l] for d, q in zip(dfas, state))

    init = tuple(d.initial for d in dfas)
    states, moves, _ = explore(init, range(len(alphabet)), step, budget, "monoid")
    letter_maps = list(zip(*moves))
    identity = tuple(range(len(states)))
    transformations, right, tree = explore(
        identity, letter_maps, lambda t, m: tuple(map(m.__getitem__, t)), budget, "monoid"
    )
    accept_sets = []
    for i, d in enumerate(dfas):
        accept_sets.append(
            frozenset(m for m, t in enumerate(transformations) if states[t[0]][i] in d.accepting)
        )
    return MonoidMorphism(alphabet, right, tree, accept_sets)
