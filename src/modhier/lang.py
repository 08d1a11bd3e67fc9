"""Regular-language front end: regexes, DFAs, transition monoids.

Input languages arrive as regular expressions over a fixed alphabet,
are compiled to minimal complete DFAs, and a family of DFAs sharing an
alphabet is folded into a single monoid morphism (the transition monoid
of their states side by side) recognizing every language in the family.

Regex grammar (whitespace ignored):

    expr    := term ('|' term)*          union, lowest precedence
    term    := factor ('&' factor)*      intersection
    factor  := item+                     juxtaposition = concatenation
    item    := '~' item | atom ('*'|'+')*
    atom    := letter | '0' | 'e' | '(' expr ')'

`0` is the empty language, `e` the empty word, `~` complement (so `~a*`
reads as `~(a*)` and `~ab` as `(~a)b`). Since `e` is grammar syntax it
cannot be used as an alphabet letter.

`parse_regex` reads a regex into a postfix program: a tuple of
(kind, operand) opcodes, children first. A letter is `("letter", c)`;
the other opcodes have operand None and are named by their grammar
character, `"0"`, `"e"`, `"|"`, `"&"`, `"*"`, `"+"` and `"~"`, with
`"."` for concatenation. `|`, `&` and concatenation are binary and
group to the left, so `a|b|c` is `a b | c |`. `compile_regex` replays
a program into interned terms in one loop over its opcodes, then walks
the terms' derivatives to a minimal DFA, and `compile_regexes` does
both for a query's regexes. Only `parse_regex` writes programs and only
`lang` reads them: `refcheck` writes its candidates as regex text.
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

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


# ---------------------------------------------------------------------------
# Regex programs


# The opcodes without an operand, each named by its grammar character;
# "." is concatenation.
_OPS = {c: (c, None) for c in "0e|&.*+~"}
# The opcode of each character that can stand alone as an item.
_ATOMS = {c: _OPS[c] if c in "0e" else ("letter", c) for c in "0abcdefghijklmnopqrstuvwxyz"}


def parse_regex(text: str, alphabet: Alphabet) -> tuple:
    """The postfix program of `text`; letters must belong to `alphabet`.

    The program is emitted as the text is read, without recursion:
    `groups` holds, for the whole text and for each open parenthesis,
    whether its current factor has an item, its current term a factor
    and it a term; `pending` holds the number of `~` before each open
    parenthesis. Whitespace is skipped: `chars[k]` is the k-th other
    character, at `where[k]` in the text, and None ends them.
    """
    if not text.strip():
        raise RegexSyntaxError("empty expression", 0)
    where = [i for i, c in enumerate(text) if not c.isspace()] + [len(text)]
    chars = [text[i] for i in where[:-1]] + [None]
    letters = alphabet.letters
    out: list[tuple] = []
    groups = [[False, False, False]]
    pending: list[int] = []
    k = 0
    while True:
        nots = 0
        while chars[k] == "~":
            k += 1
            nots += 1
        c = chars[k]
        if c == "(":
            k += 1
            groups.append([False, False, False])
            pending.append(nots)
            continue
        op = _ATOMS.get(c)
        if op is None:
            raise RegexSyntaxError("unexpected end of input" if c is None else f"unexpected {c!r}", where[k])
        if op[0] == "letter" and c not in letters:
            raise RegexSyntaxError(f"letter {c!r} outside alphabet", where[k])
        out.append(op)
        k += 1
        while True:
            c = chars[k]
            while c == "*" or c == "+":
                out.append(_OPS[c])
                k += 1
                c = chars[k]
            out.extend([_OPS["~"]] * nots)
            group = groups[-1]
            if group[0]:
                out.append(_OPS["."])
            group[0] = True
            if c != ")" or not pending:
                break
            k += 1
            _end_factor(out, groups.pop(), True)
            nots = pending.pop()
        if c is None:
            if pending:
                raise RegexSyntaxError("unbalanced parenthesis", where[k])
            _end_factor(out, groups[0], True)
            return tuple(out)
        if c == ")":
            raise RegexSyntaxError(f"unexpected {c!r}", where[k])
        if c in "|&":
            k += 1
            _end_factor(out, groups[-1], c == "|")


def _end_factor(out: list, group: list, end_term: bool) -> None:
    """End the current factor of `group`, and its term if `end_term`: each
    joins the one before it, so `&` and `|` group to the left."""
    group[0] = False
    if group[1]:
        out.append(_OPS["&"])
    group[1] = not end_term
    if end_term:
        if group[2]:
            out.append(_OPS["|"])
        group[2] = True


# ---------------------------------------------------------------------------
# Reachability


def explore(start, letters, step, budget: Budget, field: str, what: str | None = None):
    """Number the states reachable from `start` under `step`, breadth first.

    Returns (states, transitions, tree): `states[0]` is `start`,
    `transitions[i][l]` is the number of `step(states[i], letters[l])`,
    and `tree[j - 1]` is the pair (i, l) whose step first found state
    j, so i < j. This is the right Cayley graph enumeration of Froidure
    and Pin (1997) when the states are products and `step` multiplies
    by a generator. Every automaton, monoid, state-subset sequence and
    power sequence the package builds is numbered here. The states draw
    on `budget`'s `field`: `exceeded(field, what)` is raised when one
    more than it allows turns up.
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


def iter_short_words(dfa: Dfa, max_len: int) -> Iterator[str]:
    """Accepted words of length <= max_len, ordered by length then letters.

    A word is extended only while its state can still reach acceptance
    within the remaining length, so no layer holds prefixes that lead
    nowhere: `left[q]` is the length of the shortest word accepted from
    q, up to max_len, found by one backward breadth-first walk.
    """
    sources = [[] for _ in dfa.transitions]
    for p, row in enumerate(dfa.transitions):
        for q in row:
            sources[q].append(p)
    left = dict.fromkeys(dfa.accepting, 0)
    frontier = list(dfa.accepting)
    for distance in range(1, max_len + 1):
        reached = []
        for q in frontier:
            for p in sources[q]:
                if p not in left:
                    left[p] = distance
                    reached.append(p)
        frontier = reached
    layer = [("", dfa.initial)] if left.get(dfa.initial, max_len + 1) <= max_len else []
    for room in range(max_len, 0, -1):
        yield from (w for w, q in layer if q in dfa.accepting)
        layer = [
            (w + a, r)
            for w, q in layer
            for a, r in zip(dfa.alphabet, dfa.transitions[q])
            if left.get(r, room) < room
        ]
    yield from (w for w, q in layer if q in dfa.accepting)


# ---------------------------------------------------------------------------
# Regex compilation


def compile_regex(program: tuple, alphabet: Alphabet, budget: Budget = Budget()) -> Dfa:
    """Minimal complete DFA for a `parse_regex` program; raises on state-budget overrun.

    The program is replayed into terms, and the states are the term's
    derivatives (Brzozowski 1964): the derivative of a language by a
    letter a is the set of words w with aw in it, and a word is
    accepted from a state when the state's term is nullable.
    Derivatives are found breadth first from the regex, at most
    `budget.states` of them, and the automaton is minimized once.
    Terms are numbered afresh in each call, so nothing is kept between
    calls. A concatenation derives through its tail only when its head
    is nullable, so a long path such as `a` repeated 4,000 times
    compiles in about linear time in its length.
    """
    terms = _Terms(len(alphabet))
    root = terms.replay(program, alphabet)
    found, rows, _ = explore(root, range(len(alphabet)), terms.derive, budget, "states")
    accepting = frozenset(q for q, term in enumerate(found) if terms.nullable[term])
    return minimize(Dfa(alphabet, tuple(rows), 0, accepting))


def compile_regexes(texts: list[str], alphabet: Alphabet, budget: Budget) -> list[Dfa]:
    """The minimal DFAs of a query's regexes, parsed and compiled in
    order, so the first regex with a syntax error or a budget overrun
    is the one that raises.

    A program's core drops its trailing complements: `~r` derives as
    `r` does with acceptance flipped. So each distinct core is compiled
    once, tripping the `states` budget at its own count, and a regex
    `~r` beside `r` is `r`'s automaton with acceptance flipped.
    """
    cores = {}  # core program -> its DFA
    dfas = []
    for text in texts:
        program = parse_regex(text, alphabet)
        end = len(program)
        while program[end - 1] == _OPS["~"]:
            end -= 1
        core = program[:end]
        dfa = cores.get(core)
        if dfa is None:
            dfa = cores[core] = compile_regex(core, alphabet, budget)
        dfas.append(complement(dfa) if (len(program) - end) % 2 else dfa)
    return dfas


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

    def replay(self, program: tuple, alphabet: Alphabet) -> int:
        """The term of `program`, built in one pass over its opcodes: each
        takes its operands off the top of a stack of terms and leaves its
        own term there. Raises TypeError on a malformed program.

        The leaves' derivatives are known as the leaves are made, so they
        go into the memos here: by any letter, `0` and `e` derive to `0`
        and `~0` to itself, and a letter derives to `e` by itself and to
        `0` by the others. Derivatives make no new leaves."""
        for memo in self.derivatives:
            memo.update({self.empty: self.empty, self.eps: self.empty, self.full: self.full})
        stack: list[int] = []
        letters: dict[str, int] = {}
        try:
            for kind, operand in program:
                if kind == "letter":
                    t = letters.get(operand)
                    if t is None:
                        i = alphabet.index(operand)
                        t = letters[operand] = self.intern((_SYM, (i,)), False)
                        for l, memo in enumerate(self.derivatives):
                            memo[t] = self.eps if l == i else self.empty
                    stack.append(t)
                elif kind == ".":
                    y = stack.pop()
                    stack[-1] = self.seq(stack[-1], y)
                elif kind == "|" or kind == "&":
                    y = stack.pop()
                    stack[-1] = self.boolean(_ALT if kind == "|" else _AND, (stack[-1], y))
                elif kind == "*":
                    stack[-1] = self.star(stack[-1])
                elif kind == "+":
                    x = stack[-1]
                    stack[-1] = self.seq(x, self.star(x))
                elif kind == "~":
                    stack[-1] = self.negate(stack[-1])
                elif kind == "0" or kind == "e":
                    stack.append(self.empty if kind == "0" else self.eps)
                else:
                    raise TypeError(f"unknown opcode {(kind, operand)!r} in regex program {program!r}")
        except IndexError:
            raise TypeError(f"too few operands for {kind!r} in regex program {program!r}") from None
        if len(stack) != 1:
            raise TypeError(f"regex program {program!r} leaves {len(stack)} operands, not 1")
        return stack[0]

    def derive(self, term: int, l: int) -> int:
        """The derivative of `term` by letter `l`, memoized (the leaves'
        from `replay`). The derivatives a term waits on come first, from
        an explicit stack, so deep terms derive: a concatenation waits on
        its head's, and on its tail's only when the head is nullable."""
        memo = self.derivatives[l]
        d = memo.get(term)
        if d is not None:
            return d
        nodes, nullable = self.nodes, self.nullable
        todo = [term]
        while todo:
            t = todo[-1]
            kind, operands = nodes[t]
            if kind == _SEQ:
                # d(xy) = d(x)y, or d(x)y | d(y) when x accepts the empty word
                x, y = operands
                dx = memo.get(x)
                if dx is None:
                    todo.append(x)
                    continue
                if nullable[x]:
                    dy = memo.get(y)
                    if dy is None:
                        todo.append(y)
                        continue
                    d = self.boolean(_ALT, (self.seq(dx, y), dy))
                else:
                    d = self.seq(dx, y)
            elif kind == _ALT or kind == _AND:
                ds = [memo.get(u) for u in operands]
                if None in ds:
                    todo.extend(u for u in operands if u not in memo)
                    continue
                d = self.boolean(kind, ds)
            else:  # `*` or `~`
                dx = memo.get(operands[0])
                if dx is None:
                    todo.append(operands[0])
                    continue
                d = self.seq(dx, t) if kind == _STAR else self.negate(dx)
            memo[t] = d
            todo.pop()
        return d


# ---------------------------------------------------------------------------
# Transition monoids


class MonoidMorphism:
    """Transition monoid of a family of DFAs, as a morphism: that of their
    product automaton when their states are all reachable (see
    `transition_monoid`).

    Elements are integer indices; index 0 is the unit. The monoid is
    kept as its right Cayley graph: `right[m][l]` is m followed by the
    l-th letter, and `tree` the spanning tree of the enumeration (see
    `explore`), which spells out `word_for[m]`, the
    length-lexicographically least word mapping to m. `accept_sets[i]`
    holds the elements sending the initial state of the i-th input DFA
    to one of its accepting states, so a word w lies in L_i iff its
    image lies there.

    Multiplication reads Cayley rows: `row(i)` holds the product of i
    with every element, read off the graph the first time it is needed
    (i * m is i * m' followed by a letter, for the tree's parent m' of
    m) and kept for the morphism's lifetime. Rows are filled only for
    the left factors in use, so a large monoid whose products are never
    asked costs nothing, but the worst case is |M|^2 integers.
    `mult_sets` returns one canonical object per distinct set it forms,
    kept in `_sets` for the morphism's lifetime, so equal products meet
    in a dict key or a union by identity. Under the canonical covering
    map most operands are singletons {x} and {y}: their product is
    `_singletons[x * y]`, one slot per element filled through `_sets`
    the first time it is formed, so no set is built or hashed again.
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
        self._sets: dict = {}
        self._singletons: list[frozenset | None] = [None] * len(right)

    @property
    def size(self) -> int:
        return len(self._right)

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
        """All products x * y with x in xs and y in ys, as the canonical object."""
        if len(xs) == 1 == len(ys):
            (x,), (y,) = xs, ys
            m = self.row(x)[y]
            value = self._singletons[m]
            if value is None:
                value = frozenset((m,))
                value = self._singletons[m] = self._sets.setdefault(value, value)
            return value
        value = frozenset([row[y] for row in map(self.row, xs) for y in ys])
        return self._sets.setdefault(value, value)


def transition_monoid(dfas: list[Dfa], budget: Budget = Budget()) -> MonoidMorphism:
    """Close the letter transformations of the DFAs' states under composition.

    Precondition: every state of each DFA is reachable from its initial
    state, as in the DFAs of `compile_regex`, `minimize` and
    `complement`. The states of each distinct transition table lie end
    to end, a language and its complement sharing one block, and the
    letters act on them all at once. Each state is then a coordinate of
    a reachable product state, so this is the transition monoid of the
    product automaton, numbered alike. Without the precondition the
    monoid may be larger, but it still recognizes every language.

    `explore` closes them on the `monoid` budget, appending letters on
    the right to the identity, so `word_for[m]` is the least word mapping
    to m in length-lexicographic order (letters in alphabet order).
    """
    if not dfas:
        raise ValueError("need at least one DFA")
    alphabet = dfas[0].alphabet
    if any(d.alphabet != alphabet for d in dfas):
        raise ValueError("alphabet mismatch")
    offsets: dict[tuple, int] = {}  # the first state of each distinct transition table
    for d in dfas:
        offsets.setdefault(d.transitions, sum(map(len, offsets)))
    letter_maps = [
        tuple(offset + row[l] for rows, offset in offsets.items() for row in rows)
        for l in range(len(alphabet))
    ]
    identity = tuple(range(len(letter_maps[0])))
    transformations, right, tree = explore(
        identity, letter_maps, lambda t, m: tuple(map(m.__getitem__, t)), budget, "monoid"
    )
    accept_sets = []
    for d in dfas:
        offset = offsets[d.transitions]
        start, accepting = offset + d.initial, {offset + q for q in d.accepting}
        accept_sets.append(frozenset(m for m, t in enumerate(transformations) if t[start] in accepting))
    return MonoidMorphism(alphabet, right, tree, accept_sets)
