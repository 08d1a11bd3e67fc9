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

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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
    """Minimal complete DFA, states renumbered in BFS order from the initial.

    The canonical numbering makes minimal DFAs of equal languages
    structurally equal, so `==` doubles as a language-equality check on
    minimized values.
    """
    nletters = len(dfa.alphabet)
    reach = _bfs_order_map(dfa.transitions, dfa.initial, nletters)
    # Moore partition refinement on the reachable part.
    block = {q: (1 if q in dfa.accepting else 0) for q in reach}
    nblocks = 2 if len(set(block.values())) == 2 else 1
    while True:
        sigs = {}
        newblock = {}
        for q in reach:
            sig = (block[q], tuple(block[dfa.transitions[q][l]] for l in range(nletters)))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            newblock[q] = sigs[sig]
        if len(sigs) == nblocks:
            block = newblock
            break
        block, nblocks = newblock, len(sigs)
    # Quotient transitions, then canonical renumbering by BFS.
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    qtrans = {
        b: tuple(block[dfa.transitions[q][l]] for l in range(nletters)) for b, q in rep.items()
    }
    order = _bfs_order_map(qtrans, block[dfa.initial], nletters)
    transitions = tuple(
        tuple(order[t] for t in qtrans[b]) for b in sorted(qtrans, key=order.__getitem__)
    )
    accepting = frozenset(order[b] for b in qtrans if rep[b] in dfa.accepting)
    return Dfa(dfa.alphabet, transitions, 0, accepting)


def _bfs_order_map(trans_map, initial, nletters: int) -> dict:
    """BFS number of every state reachable from the initial one, in BFS order."""
    order = {initial: 0}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        for l in range(nletters):
            t = trans_map[q][l]
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    return order


def _determinize(
    alphabet: Alphabet,
    start: frozenset[int],
    move: Callable[[int, int], Iterable[int]],
    is_accept: Callable[[frozenset[int]], bool],
    budget: Budget,
) -> Dfa:
    """Subset construction over an implicit NFA given by `move`."""
    limit = budget.states
    index = {start: 0}
    rows = []
    accepting = set()
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        if is_accept(subset):
            accepting.add(index[subset])
        row = []
        for l in range(len(alphabet)):
            nxt = frozenset(t for s in subset for t in move(s, l))
            if nxt not in index:
                if len(index) >= limit:
                    raise budget.exceeded("states")
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return Dfa(alphabet, tuple(rows), 0, frozenset(accepting))


def _product(x: Dfa, y: Dfa, keep: Callable[[bool, bool], bool], budget: Budget) -> Dfa:
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    limit = budget.states
    nletters = len(x.alphabet)
    index = {(x.initial, y.initial): 0}
    rows = []
    accepting = set()
    queue = deque([(x.initial, y.initial)])
    while queue:
        p, q = queue.popleft()
        if keep(p in x.accepting, q in y.accepting):
            accepting.add(index[(p, q)])
        row = []
        for l in range(nletters):
            nxt = (x.transitions[p][l], y.transitions[q][l])
            if nxt not in index:
                if len(index) >= limit:
                    raise budget.exceeded("states")
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return Dfa(x.alphabet, tuple(rows), 0, frozenset(accepting))


def union(x: Dfa, y: Dfa, budget: Budget = Budget()) -> Dfa:
    return minimize(_product(x, y, lambda a, b: a or b, budget))


def intersect(x: Dfa, y: Dfa, budget: Budget = Budget()) -> Dfa:
    return minimize(_product(x, y, lambda a, b: a and b, budget))


def complement(x: Dfa) -> Dfa:
    # Flipping the accepting set of a complete minimal DFA keeps it minimal.
    return Dfa(x.alphabet, x.transitions, x.initial, frozenset(range(x.num_states)) - x.accepting)


def _reachable_pairs(x: Dfa, y: Dfa) -> Iterator[tuple[int, int]]:
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    seen = {(x.initial, y.initial)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        yield p, q
        for l in range(len(x.alphabet)):
            nxt = (x.transitions[p][l], y.transitions[q][l])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def included(x: Dfa, y: Dfa) -> bool:
    return all(q in y.accepting for p, q in _reachable_pairs(x, y) if p in x.accepting)


def disjoint(x: Dfa, y: Dfa) -> bool:
    return not any(p in x.accepting and q in y.accepting for p, q in _reachable_pairs(x, y))


def is_empty(x: Dfa) -> bool:
    seen = {x.initial}
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        if q in x.accepting:
            return False
        for t in x.transitions[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return True


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

    Nodes are built children first, left to right, without recursion,
    so any depth of nesting compiles. `built`, local to the call, maps
    a node's key (its type with its letter or its children's numbers)
    to its number and DFA, so equal subexpressions are built once and
    no subtree is ever hashed. Every node is still minimized as on its
    own, so the DFA and the point where the budget runs out do not
    depend on the sharing.
    """
    order = []  # each node with its number of children, parents first
    todo = [regex]
    while todo:
        r = todo.pop()
        children = _children(r)
        order.append((r, len(children)))
        todo.extend(children)
    built: dict = {}
    numbers, dfas = [], []  # of the nodes built whose parents are not
    for r, arity in reversed(order):  # children before parents, left before right
        first = len(numbers) - arity
        key = (Sym, r.letter) if isinstance(r, Sym) else (type(r), *numbers[first:])
        entry = built.get(key)
        if entry is None:
            entry = built[key] = (len(built), _node_dfa(r, dfas[first:], alphabet, budget))
        del numbers[first:], dfas[first:]
        numbers.append(entry[0])
        dfas.append(entry[1])
    return dfas[0]


def _dfa_empty(alphabet: Alphabet) -> Dfa:
    return Dfa(alphabet, ((0,) * len(alphabet),), 0, frozenset())


def _dfa_eps(alphabet: Alphabet) -> Dfa:
    sink = (1,) * len(alphabet)
    return Dfa(alphabet, (sink, sink), 0, frozenset({0}))


def _dfa_letter(alphabet: Alphabet, letter: str) -> Dfa:
    """The minimal DFA of one letter, numbered in BFS order as `minimize` would."""
    l = alphabet.index(letter)
    hit, miss = (1, 2) if l == 0 else (2, 1)
    sink = (miss,) * len(alphabet)
    first = tuple(hit if i == l else miss for i in range(len(alphabet)))
    return Dfa(alphabet, (first, sink, sink), 0, frozenset({hit}))


def _concat(x: Dfa, y: Dfa, budget: Budget) -> Dfa:
    off = x.num_states

    def move(s: int, l: int) -> list[int]:
        if s < off:
            targets = [x.transitions[s][l]]
            if s in x.accepting:
                targets.append(off + y.transitions[y.initial][l])
            return targets
        return [off + y.transitions[s - off][l]]

    eps_in_y = y.initial in y.accepting
    start = frozenset({x.initial} | ({off + y.initial} if x.initial in x.accepting else set()))

    def is_accept(subset: frozenset[int]) -> bool:
        for s in subset:
            if s >= off and (s - off) in y.accepting:
                return True
            if eps_in_y and s < off and s in x.accepting:
                return True
        return False

    return minimize(_determinize(x.alphabet, start, move, is_accept, budget))


def _star(x: Dfa, budget: Budget, plus: bool) -> Dfa:
    # Fresh start state avoids false accepts from loops through the old
    # initial state; for plus it accepts only when x itself accepts eps.
    s0 = x.num_states
    start_accepts = (not plus) or (x.initial in x.accepting)

    def move(s: int, l: int) -> list[int]:
        if s == s0:
            return [x.transitions[x.initial][l]]
        targets = [x.transitions[s][l]]
        if s in x.accepting:
            targets.append(x.transitions[x.initial][l])
        return targets

    def is_accept(subset: frozenset[int]) -> bool:
        if s0 in subset:
            return start_accepts
        return any(s in x.accepting for s in subset)

    return minimize(_determinize(x.alphabet, frozenset({s0}), move, is_accept, budget))


def _children(r: Regex) -> tuple[Regex, ...]:
    if isinstance(r, (Alt, And, Seq)):
        return (r.left, r.right)
    if isinstance(r, (Star, Plus, Not)):
        return (r.inner,)
    return ()


def _node_dfa(r: Regex, dfas: list[Dfa], alp: Alphabet, budget: Budget) -> Dfa:
    """The DFA of the node `r`, given `dfas`, those of its children."""
    if isinstance(r, Empty):
        return _dfa_empty(alp)
    if isinstance(r, Eps):
        return _dfa_eps(alp)
    if isinstance(r, Sym):
        return _dfa_letter(alp, r.letter)
    if isinstance(r, Alt):
        return union(*dfas, budget)
    if isinstance(r, And):
        return intersect(*dfas, budget)
    if isinstance(r, Seq):
        return _concat(*dfas, budget)
    if isinstance(r, Star):
        return _star(*dfas, budget, plus=False)
    if isinstance(r, Plus):
        return _star(*dfas, budget, plus=True)
    if isinstance(r, Not):
        return complement(*dfas)
    raise TypeError(f"not a regex node: {r!r}")


# ---------------------------------------------------------------------------
# Transition monoids


class MonoidMorphism:
    """Transition monoid of a product automaton, as a morphism.

    Elements are integer indices; index 0 is the unit (the identity
    transformation). `accept_sets[i]` holds the elements sending the
    initial product state into a configuration accepting for the i-th
    input DFA, so a word w lies in L_i iff its image lies there.

    Multiplication reads Cayley rows: `row(i)` holds the product of i
    with every element, formed in full the first time it is needed and
    kept for the morphism's lifetime. Rows are filled only for the left
    factors in use, so a large monoid whose products are never asked
    costs nothing, but the worst case is |M|^2 integers.
    """

    def __init__(self, alphabet, transformations, letter_image, accept_sets, word_for):
        self.alphabet = alphabet
        self._transformations = tuple(transformations)
        self._index = {t: i for i, t in enumerate(self._transformations)}
        self.letter_image = dict(letter_image)
        self.accept_sets = tuple(frozenset(f) for f in accept_sets)
        self.word_for = tuple(word_for)
        self.unit = 0
        self._rows: list[tuple[int, ...] | None] = [None] * len(self._transformations)
        npoints = len(self._transformations[0])
        if self._transformations[0] != tuple(range(npoints)):
            raise ValueError("element 0 must be the identity transformation")

    @property
    def size(self) -> int:
        return len(self._transformations)

    def __len__(self) -> int:
        return self.size

    def elements(self) -> range:
        return range(self.size)

    def row(self, i: int) -> tuple[int, ...]:
        """The products of element i followed by each element, by index."""
        row = self._rows[i]
        if row is None:
            ti, index = self._transformations[i], self._index
            row = tuple(index[tuple(map(tj.__getitem__, ti))] for tj in self._transformations)
            self._rows[i] = row
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
    tuple of initials; transformations act on that set. Closure is a
    worklist walk from the identity, appending generators on the right,
    so `word_for[m]` is the length-lexicographically least word mapping
    to m (letters compared in alphabet order).
    """
    if not dfas:
        raise ValueError("need at least one DFA")
    alphabet = dfas[0].alphabet
    if any(d.alphabet != alphabet for d in dfas):
        raise ValueError("alphabet mismatch")

    init = tuple(d.initial for d in dfas)
    states = {init: 0}
    state_list = [init]
    queue = deque([init])
    while queue:
        s = queue.popleft()
        for l in range(len(alphabet)):
            nxt = tuple(d.transitions[q][l] for d, q in zip(dfas, s))
            if nxt not in states:
                states[nxt] = len(states)
                state_list.append(nxt)
                queue.append(nxt)

    npoints = len(state_list)
    letter_maps = []
    for l in range(len(alphabet)):
        letter_maps.append(
            tuple(
                states[tuple(d.transitions[q][l] for d, q in zip(dfas, s))] for s in state_list
            )
        )

    limit = budget.monoid
    identity = tuple(range(npoints))
    index = {identity: 0}
    transformations = [identity]
    word_for = [""]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        t = transformations[i]
        for l, a in enumerate(alphabet):
            composed = tuple(map(letter_maps[l].__getitem__, t))
            if composed not in index:
                if len(transformations) >= limit:
                    raise budget.exceeded("monoid")
                index[composed] = len(transformations)
                transformations.append(composed)
                word_for.append(word_for[i] + a)
                queue.append(index[composed])

    letter_image = {a: index[letter_maps[l]] for l, a in enumerate(alphabet)}
    accept_sets = []
    for i, d in enumerate(dfas):
        accept_sets.append(
            frozenset(
                m for m, t in enumerate(transformations) if state_list[t[0]][i] in d.accepting
            )
        )
    return MonoidMorphism(alphabet, transformations, letter_image, accept_sets, word_for)
