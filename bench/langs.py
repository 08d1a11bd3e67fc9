"""The benchmark's own regular-language toolkit, independent of modhier.

Answers are checked against this module, so it shares no code with the
program under test: regexes in modhier's surface syntax are parsed
here, turned into DFAs by Brzozowski derivatives, minimized by Moore
refinement, and compared by product walks. Everything is small and
slow on purpose; it runs outside the timed section.
"""

from __future__ import annotations

from collections import deque
from math import lcm

# Regex nodes are hashable tuples, normalized by the smart constructors
# below so that the derivative construction reaches finitely many states.
EMPTY = ("0",)
EPS = ("e",)


def sym(letter):
    return ("c", letter)


def alt(*items):
    flat = set()
    for x in items:
        if x[0] == "|":
            flat |= x[1]
        elif x != EMPTY:
            flat.add(x)
    if not flat:
        return EMPTY
    if any(x[0] == "~" and x[1] == EMPTY for x in flat):
        return not_(EMPTY)
    if len(flat) == 1:
        return next(iter(flat))
    return ("|", frozenset(flat))


def and_(*items):
    flat = set()
    for x in items:
        if x == EMPTY:
            return EMPTY
        if x[0] == "&":
            flat |= x[1]
        elif not (x[0] == "~" and x[1] == EMPTY):
            flat.add(x)
    if not flat:
        return not_(EMPTY)
    if len(flat) == 1:
        return next(iter(flat))
    return ("&", frozenset(flat))


def cat(a, b):
    if a == EMPTY or b == EMPTY:
        return EMPTY
    if a == EPS:
        return b
    if b == EPS:
        return a
    if a[0] == ".":
        return cat(a[1], cat(a[2], b))
    return (".", a, b)


def star(a):
    if a[0] == "*":
        return a
    if a in (EMPTY, EPS):
        return EPS
    return ("*", a)


def not_(a):
    if a[0] == "~":
        return a[1]
    return ("~", a)


def nullable(r) -> bool:
    kind = r[0]
    if kind in ("e", "*"):
        return True
    if kind in ("0", "c"):
        return False
    if kind == "|":
        return any(nullable(x) for x in r[1])
    if kind == "&":
        return all(nullable(x) for x in r[1])
    if kind == ".":
        return nullable(r[1]) and nullable(r[2])
    return not nullable(r[1])


def deriv(r, letter):
    kind = r[0]
    if kind in ("0", "e"):
        return EMPTY
    if kind == "c":
        return EPS if r[1] == letter else EMPTY
    if kind == "|":
        return alt(*(deriv(x, letter) for x in r[1]))
    if kind == "&":
        return and_(*(deriv(x, letter) for x in r[1]))
    if kind == ".":
        head = cat(deriv(r[1], letter), r[2])
        return alt(head, deriv(r[2], letter)) if nullable(r[1]) else head
    if kind == "*":
        return cat(deriv(r[1], letter), r)
    return not_(deriv(r[1], letter))


def parse(text: str, alphabet: str):
    """Parse modhier's regex grammar (see its README) into a node."""
    s = "".join(text.split())
    pos = 0

    def peek():
        return s[pos] if pos < len(s) else None

    def union():
        nonlocal pos
        node = inter()
        while peek() == "|":
            pos += 1
            node = alt(node, inter())
        return node

    def inter():
        nonlocal pos
        node = concat()
        while peek() == "&":
            pos += 1
            node = and_(node, concat())
        return node

    def concat():
        node = item()
        while peek() is not None and peek() not in ")|&":
            node = cat(node, item())
        return node

    def item():
        nonlocal pos
        if peek() == "~":
            pos += 1
            return not_(item())
        node = atom()
        while peek() in ("*", "+"):
            op = s[pos]
            pos += 1
            node = star(node) if op == "*" else cat(node, star(node))
        return node

    def atom():
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            node = union()
            if peek() != ")":
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        if c is None or (c not in alphabet and c not in "0e"):
            raise ValueError(f"unexpected {c!r} in {text!r}")
        pos += 1
        return EMPTY if c == "0" else EPS if c == "e" else sym(c)

    node = union()
    if pos != len(s):
        raise ValueError(f"trailing input in {text!r}")
    return node


class Automaton:
    """Complete DFA over `alphabet`: delta[q][i] is the successor on letter i."""

    def __init__(self, alphabet: str, delta, accepting, initial: int = 0):
        self.alphabet = alphabet
        self.delta = [tuple(row) for row in delta]
        self.accepting = frozenset(accepting)
        self.initial = initial

    @property
    def size(self) -> int:
        return len(self.delta)

    def accepts(self, word: str) -> bool:
        q = self.initial
        for letter in word:
            q = self.delta[q][self.alphabet.index(letter)]
        return q in self.accepting

    def complement(self) -> "Automaton":
        return Automaton(
            self.alphabet, self.delta, set(range(self.size)) - self.accepting, self.initial
        )


def automaton(text: str, alphabet: str, max_states: int = 5000) -> Automaton:
    """Minimal DFA of a regex by derivatives, then Moore refinement."""
    start = parse(text, alphabet)
    index = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        row = []
        for letter in alphabet:
            d = deriv(order[i], letter)
            if d not in index:
                if len(order) >= max_states:
                    raise ValueError(f"{text!r} needs more than {max_states} states")
                index[d] = len(order)
                order.append(d)
            row.append(index[d])
        delta.append(row)
        i += 1
    accepting = {q for q, r in enumerate(order) if nullable(r)}
    return minimize(Automaton(alphabet, delta, accepting))


def minimize(a: Automaton) -> Automaton:
    """Moore partition refinement; states renumbered in BFS order."""
    block = [1 if q in a.accepting else 0 for q in range(a.size)]
    count = len(set(block))
    while True:
        sigs = {}
        new = []
        for q in range(a.size):
            sig = (block[q],) + tuple(block[t] for t in a.delta[q])
            new.append(sigs.setdefault(sig, len(sigs)))
        block = new
        if len(sigs) == count:
            break
        count = len(sigs)
    number = {block[a.initial]: 0}
    rep = {}
    queue = deque([a.initial])
    while queue:
        q = queue.popleft()
        rep.setdefault(block[q], q)
        for t in a.delta[q]:
            if block[t] not in number:
                number[block[t]] = len(number)
                queue.append(t)
    delta = [None] * len(number)
    accepting = set()
    for b, n in number.items():
        q = rep[b]
        delta[n] = tuple(number[block[t]] for t in a.delta[q])
        if q in a.accepting:
            accepting.add(n)
    return Automaton(a.alphabet, delta, accepting)


def reachable_tuples(automata):
    """States of the product automaton reachable from the initial tuple."""
    start = tuple(a.initial for a in automata)
    seen = {start}
    queue = deque([start])
    width = len(automata[0].alphabet)
    while queue:
        qs = queue.popleft()
        for i in range(width):
            nxt = tuple(a.delta[q][i] for a, q in zip(automata, qs))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def intersect_all(automata) -> bool:
    """Is some word accepted by every automaton?"""
    return any(
        all(q in a.accepting for a, q in zip(automata, qs)) for qs in reachable_tuples(automata)
    )


def intersects(x: Automaton, y: Automaton) -> bool:
    return intersect_all([x, y])


def included(x: Automaton, y: Automaton) -> bool:
    return all(q in y.accepting for p, q in reachable_tuples([x, y]) if p in x.accepting)


def monoid_size(automata, cap: int = 100000) -> int:
    """Size of the transition monoid of the reachable product automaton."""
    states = sorted(reachable_tuples(automata))
    index = {s: i for i, s in enumerate(states)}
    width = len(automata[0].alphabet)
    gens = [
        tuple(index[tuple(a.delta[q][l] for a, q in zip(automata, s))] for s in states)
        for l in range(width)
    ]
    identity = tuple(range(len(states)))
    seen = {identity}
    queue = deque([identity])
    while queue:
        t = queue.popleft()
        for g in gens:
            u = tuple(g[x] for x in t)
            if u not in seen:
                seen.add(u)
                if len(seen) > cap:
                    return len(seen)
                queue.append(u)
    return len(seen)


def length_sets(a: Automaton):
    """The accepted lengths as (threshold, period, accepted flags).

    Walks the sets of states reachable by words of each length until one
    repeats; flags[n] says whether length n is accepted, for
    n < threshold + period, and flags repeat with the period from then on.
    """
    current = frozenset({a.initial})
    seen = {}
    flags = []
    while current not in seen:
        seen[current] = len(flags)
        flags.append(bool(current & a.accepting))
        current = frozenset(t for q in current for t in a.delta[q])
    threshold = seen[current]
    return threshold, len(flags) - threshold, flags


def _accepts_length(profile, n: int) -> bool:
    threshold, period, flags = profile
    if n >= threshold:
        n = threshold + (n - threshold) % period
    return flags[n]


def level0_modulus(x: Automaton, y: Automaton):
    """A modulus whose residue classes separate x from y, or None.

    A union of residue classes mod d separates exactly when no length
    of x is congruent mod d to a length of y. If some d works, so does
    every multiple of it; and a common multiple D of both periods with
    D at least both thresholds fails only if every multiple of it fails.
    So testing D decides separability.
    """
    px, py = length_sets(x), length_sets(y)
    t = max(px[0], py[0])
    p = lcm(px[1], py[1])
    d = p * max(1, -(-t // p))
    span = t + 2 * d
    rx = {n % d for n in range(span) if _accepts_length(px, n)}
    ry = {n % d for n in range(span) if _accepts_length(py, n)}
    return None if rx & ry else d


def residue_separator_ok(modulus: int, x: Automaton, y: Automaton) -> bool:
    """Do the residues mod `modulus` of x's lengths avoid y's lengths?

    Product walk of each automaton with a length counter mod `modulus`.
    """
    def residues(a):
        start = (a.initial, 0)
        seen = {start}
        queue = deque([start])
        while queue:
            q, r = queue.popleft()
            for t in a.delta[q]:
                nxt = (t, (r + 1) % modulus)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return {r for q, r in seen if q in a.accepting}

    return not (residues(x) & residues(y))


def any_letter(alphabet: str) -> str:
    return "(" + "|".join(alphabet) + ")"


def marked_product_regex(modulus: int, markers, alphabet: str) -> str:
    """Union over marker words a1..an of (A^d)* a1 (A^d)* ... an (A^d)*."""
    if not markers:
        return "0"
    block = "(" + any_letter(alphabet) * modulus + ")*"
    return "|".join("(" + block + "".join(m + block for m in word) + ")" for word in markers)
