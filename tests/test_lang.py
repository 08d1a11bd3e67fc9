"""Regex parsing, DFA compilation, regular ops, transition monoids."""

import gc
import itertools
import random
import re
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhier import lang as lang_module
from modhier.errors import Budget, BudgetExceededError, InputError, RegexSyntaxError
from modhier.lang import (
    Alphabet,
    Dfa,
    compile_regex,
    complement,
    disjoint,
    explore,
    included,
    iter_short_words,
    minimize,
    parse_regex,
    transition_monoid,
)

from gen import (
    A,
    AB,
    count_calls,
    drawn_instances,
    fs,
    image_of_word,
    lang,
    matches,
    named,
    product_transition_monoid,
    random_dfa,
    random_instances,
    validate_morphism,
)
from oracles import accepts, equivalent, is_empty, short_words_by_layers


def program(opcodes):
    """The program written as space-separated opcodes, children first: a
    letter other than `e` stands for its letter opcode, `.` for
    concatenation, and `0`, `e`, `|`, `&`, `*`, `+`, `~` for themselves."""
    return tuple(("letter", c) if c.isalpha() and c != "e" else (c, None) for c in opcodes.split())


# -- parsing ----------------------------------------------------------------


# Each regex with its program.
PARSES = [
    ("parse_concat_star", "a(ab)*", AB,
     (("letter", "a"), ("letter", "a"), ("letter", "b"), (".", None), ("*", None), (".", None))),
    ("parse_complement_of_empty", "~0", A, program("0 ~")),
    # union lowest, complement binds the following item with its postfix
    ("parse_precedence", "a|b a", AB, program("a b a . |")),
    ("parse_precedence", "~a*", A, program("a * ~")),
    ("parse_precedence", "~ab", AB, program("a ~ b .")),
    ("parse_precedence", "a+", A, program("a +")),
    ("parse_precedence", "e|a", A, program("e a |")),
    ("parse_groups_binary_operators_to_the_left", "a|b|a&b&a", AB, program("a b | a b & a & |")),
    ("parse_groups_binary_operators_to_the_left", "a b (a b) a", AB, program("a b . a b . . a .")),
]


@pytest.mark.parametrize("text, alphabet, opcodes", named(PARSES))
def test_parse(text, alphabet, opcodes):
    assert parse_regex(text, alphabet) == opcodes


# Each malformed text with its full message; the position ends the message.
SYNTAX_ERRORS = [
    ("", "empty expression (at position 0)"),
    ("   ", "empty expression (at position 0)"),
    ("a(", "unexpected end of input (at position 2)"),
    ("(a", "unbalanced parenthesis (at position 2)"),
    ("a)", "unexpected ')' (at position 1)"),
    ("()", "unexpected ')' (at position 1)"),
    ("a|", "unexpected end of input (at position 2)"),
    ("a||b", "unexpected '|' (at position 2)"),
    ("(a|)", "unexpected ')' (at position 3)"),
    ("**", "unexpected '*' (at position 0)"),
    ("a~", "unexpected end of input (at position 2)"),
    ("c", "letter 'c' outside alphabet (at position 0)"),
    ("A", "unexpected 'A' (at position 0)"),
    ("(" * 2000, "unexpected end of input (at position 2000)"),
]


def test_parse_errors():
    for text, message in SYNTAX_ERRORS:
        with pytest.raises(RegexSyntaxError) as caught:
            parse_regex(text, AB)
        assert str(caught.value) == message
        assert caught.value.position == int(message.rsplit(" ", 1)[1][:-1])


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet.of("")
    with pytest.raises(InputError):
        Alphabet.of("aa")
    with pytest.raises(InputError):
        Alphabet.of("ae")  # e is grammar syntax
    with pytest.raises(InputError):
        Alphabet.of("aB")
    with pytest.raises(InputError):
        AB.index("c")


# -- compilation ------------------------------------------------------------


# Regexes with their minimal DFA: its transition rows and accepting
# states, from the initial state 0.
EXACT_DFAS = [
    ("compile_even_length_unary", "(aa)*", A, ((1,), (0,)), fs(0)),
    ("compile_empty_language", "0", A, ((0,),), fs()),
    # canonical minimal form: initial, accept, sink
    ("compile_single_letter_choice", "a|b", AB, ((1, 1), (2, 2), (2, 2)), fs(1)),
]


@pytest.mark.parametrize("text, alphabet, transitions, accepting", named(EXACT_DFAS))
def test_compile_exact_dfa(text, alphabet, transitions, accepting):
    assert lang(text, alphabet) == Dfa(alphabet, transitions, 0, accepting)


def test_compile_membership_samples():
    d = lang("a(ab)*")
    assert accepts(d, "a")
    assert accepts(d, "aab")
    assert accepts(d, "aabab")
    assert not accepts(d, "")
    assert not accepts(d, "ab")
    assert not accepts(d, "aaba")


def test_compile_plus_vs_star():
    star = lang("(ab)*")
    plus = lang("(ab)+")
    assert accepts(star, "")
    assert not accepts(plus, "")
    assert accepts(plus, "ab") and accepts(plus, "abab")
    assert equivalent(plus, lang("ab(ab)*"))


def test_compile_boolean_ops():
    assert equivalent(lang("~0"), lang("(a|b)*"))
    assert equivalent(lang("~(~a)"), lang("a"))
    assert equivalent(lang("a* & ~e"), lang("a+", AB))
    assert equivalent(lang("~((a|b)*b(a|b)*)"), lang("a*"))


def test_compile_budget():
    # The budget bounds the derivatives: a^10, a^9, ..., a, e and 0.
    path = parse_regex("a" * 10, AB)
    assert compile_regex(path, AB, Budget(states=12)).num_states == 12
    with pytest.raises(BudgetExceededError, match=r"^state budget exceeded \(limit 11\)$"):
        compile_regex(path, AB, Budget(states=11))


@pytest.mark.parametrize(
    "regex, message",
    [
        (program("a ?"), "unknown opcode ('?', None) in regex program {}"),
        ((("letter", "a"), ("star", None)), "unknown opcode ('star', None) in regex program {}"),
        (program("a |"), "too few operands for '|' in regex program {}"),
        (program("*"), "too few operands for '*' in regex program {}"),
        (program(". a"), "too few operands for '.' in regex program {}"),
        ((), "regex program {} leaves 0 operands, not 1"),
        (program("a b"), "regex program {} leaves 2 operands, not 1"),
        (program("a b . b"), "regex program {} leaves 2 operands, not 1"),
    ],
)
def test_malformed_programs_are_rejected(regex, message):
    with pytest.raises(TypeError) as caught:
        compile_regex(regex, AB)
    assert str(caught.value) == message.format(repr(regex))


def test_program_letters_are_checked_against_the_alphabet():
    with pytest.raises(InputError, match=r"^letter 'c' not in alphabet 'ab'$"):
        compile_regex(program("a c ."), AB)
    # A program compiles under any alphabet that holds its letters.
    abc = Alphabet.of("abc")
    assert compile_regex(parse_regex("a*b", AB), abc) == lang("a*b", abc)


# Regexes that together use every operator, with the number of derivatives
# each compiles through: it fits a budget of exactly that many states and
# trips one fewer. A change to how the parser groups or the terms
# normalize moves these counts.
TRIP_POINTS = [
    ("(a|b)*a(a|b)(a|b)", 8),
    ("abab(a|b)*ba", 8),
    ("((ab)*)*b", 4),
    ("a* & ~(b*)", 3),
    ("(ab)+ | e", 4),
    ("~((a|b)*abba(a|b)*)", 10),
    ("0 | a0b | b", 3),
    ("(a|e)(b|e)(a|e)b", 6),
    ("  ( a b ) *  ( b a ) +  ", 5),
    ("~~a~~b", 4),
    ("(a&b)|~e", 2),
    ("a+b+&(ab)*", 4),
    ("(((((a|b)b)|a)b)|ba)*a", 12),
    ("(" * 200 + "ab" + ")+" * 200, 4),
]


@pytest.mark.parametrize("text, n", TRIP_POINTS, ids=[t[:24] for t, _ in TRIP_POINTS])
def test_state_budget_trips_at_the_derivative_count(text, n):
    regex = parse_regex(text, AB)
    assert compile_regex(regex, AB, Budget(states=n)) == lang(text)
    with pytest.raises(BudgetExceededError, match=rf"^state budget exceeded \(limit {n - 1}\)$"):
        compile_regex(regex, AB, Budget(states=n - 1))


@pytest.mark.parametrize(
    "transitions, initial, accepting, message",
    [
        (((0, 1), (1, 1)), 2, (), "initial state out of range"),
        (((0, 1), (1,)), 0, (), "transition row does not match alphabet"),
        (((0, 1), (1, 1, 0)), 0, (), "transition row does not match alphabet"),
        (((0, 2), (1, 1)), 0, (), "transition target out of range"),
        (((0, 1), (-1, 1)), 0, (), "transition target out of range"),
        (((0, 1), (1, 1)), 0, (0, 2), "accepting state out of range"),
        (((0, 1), (1, 1)), 0, (-1,), "accepting state out of range"),
        # The first fault in reading order is the one reported.
        (((0, 5), (1,)), 0, (9,), "transition target out of range"),
    ],
)
def test_malformed_dfas_are_rejected(transitions, initial, accepting, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(AB, transitions, initial, frozenset(accepting))


def compile_outcome(regex, budget):
    try:
        dfa = compile_regex(regex, AB, budget)
    except BudgetExceededError as error:
        return str(error)
    return dfa


def _wrap(children):
    def joined(kind):
        return st.builds(lambda x, y: x + y + ((kind, None),), children, children)

    def applied(kind):
        return children.map(lambda x: x + ((kind, None),))

    return st.one_of(*map(joined, "|&."), *map(applied, "*+~"))


_LEAVES = st.sampled_from([program("a"), program("b"), program("e"), program("0")])
_subtrees = st.recursive(_LEAVES, _wrap, max_leaves=5)
# Programs whose leaves are one drawn subprogram or a letter: equal
# subexpressions recur, as the parser makes them.
_shared_regexes = _subtrees.flatmap(
    lambda t: st.recursive(st.sampled_from([t, program("a")]), _wrap, max_leaves=6)
)


_SHORT_WORDS = ["".join(w) for n in range(7) for w in itertools.product("ab", repeat=n)]


@settings(max_examples=150, deadline=None)
@given(_shared_regexes, st.integers(1, 24))
def test_shared_subexpressions_compile_as_when_built_each_time(regex, limit):
    # Against `matches`, which reads the program with no automaton.
    dfa = compile_regex(regex, AB)
    accepted = [w for w in _SHORT_WORDS if accepts(dfa, w)]
    assert accepted == [w for w in _SHORT_WORDS if matches(regex, w)]
    assert minimize(dfa) == dfa
    # A bounded compilation trips the state budget or gives the same DFA,
    # and one that fits fits any larger budget.
    outcome = compile_outcome(regex, Budget(states=limit))
    assert outcome in (dfa, f"state budget exceeded (limit {limit})")
    if outcome == dfa:
        assert compile_outcome(regex, Budget(states=limit + 1)) == dfa


def derivative_count(regex):
    """The number of derivatives `compile_regex` walks for `regex`."""
    terms = lang_module._Terms(len(AB))
    found, _, _ = explore(terms.replay(regex, AB), range(len(AB)), terms.derive, Budget(), "states")
    return len(found)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_shared_regexes, st.recursive(_LEAVES, _wrap, max_leaves=10)))
def test_a_complement_compiles_to_the_flipped_dfa(regex):
    # `~r` derives as r does with acceptance flipped: the same number of
    # derivatives, so the same state-budget trip point.
    negated = regex + (("~", None),)
    n = derivative_count(regex)
    dfa = compile_regex(regex, AB, Budget(states=n))
    assert compile_regex(negated, AB, Budget(states=n)) == complement(dfa)
    if n > 1:
        tripped = compile_outcome(regex, Budget(states=n - 1))
        assert tripped == f"state budget exceeded (limit {n - 1})"
        assert compile_outcome(negated, Budget(states=n - 1)) == tripped


@pytest.mark.parametrize(
    "text, states",
    [
        ("a" * 4000, 4002),
        ("(" + "a" * 4000 + ")*", 4001),
        ("a" * 5000, None),
        ("(a|b)*a" + "(a|b)" * 12, None),
    ],
    ids=["a x 4000", "(a x 4000)*", "a x 5000", "(a|b)*a(a|b) x 12"],
)
def test_path_regexes_compile_in_bounded_time(text, states):
    # Long paths: their cost is bounded by the states budget, not cubic in their length.
    started = time.process_time()
    outcome = compile_outcome(parse_regex(text, AB), Budget())
    assert time.process_time() - started < 5
    if states is None:
        assert outcome == "state budget exceeded (limit 4096)"
    else:
        assert outcome.num_states == states


def test_long_alternations_compile():
    # 700 nested unions.
    regex = parse_regex("|".join(["a", "b", "ab"] * 233 + ["ba"]), AB)
    assert compile_regex(regex, AB) == lang("a|b|ab|ba")


# How tightly each opcode binds as printed: union, intersection,
# concatenation, complement, postfix; letters, 0 and e bind tightest.
_BINDING = {"|": 0, "&": 1, ".": 2, "~": 3, "*": 4, "+": 4}


def printed(regex):
    """The program `regex` as text with the fewest parentheses that parse back to it."""
    stack = []  # the text of each operand, with how tightly it binds

    def operand(least):
        text, binding = stack.pop()
        return f"({text})" if binding < least else text

    for kind, letter in regex:
        binding = _BINDING.get(kind, 5)
        if kind in ("|", "&", "."):
            right = operand(binding + 1)
            text = operand(binding) + {"|": "|", "&": "&", ".": " "}[kind] + right
        elif kind == "~":
            text = "~" + operand(3)
        elif kind in ("*", "+"):
            text = operand(4) + kind
        else:
            text = letter if kind == "letter" else kind
        stack.append((text, binding))
    [(text, _)] = stack
    return text


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _wrap, max_leaves=12))
def test_printed_regexes_parse_back(regex):
    # Precedence, left grouping and postfix/complement binding, on the
    # parser's explicit stack of open groups.
    assert parse_regex(printed(regex), AB) == regex


def test_equal_subexpressions_are_minimized_once(monkeypatch):
    minimize_calls = count_calls(monkeypatch, lang_module, "minimize")
    # Every compilation minimizes once, at the root, whatever its operators.
    for text in ["(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "~(a*b)&(ab)+|e", "(" * 50 + "a" + ")*" * 50]:
        minimize_calls.clear()
        compile_regex(parse_regex(text, AB), AB)
        assert len(minimize_calls) == 1, text


def test_no_compiled_subexpression_outlives_its_call(monkeypatch):
    # Each call builds its own term table, starting with no derivatives,
    # and drops it on return.
    tables = []

    class Recorded(lang_module._Terms):
        def __init__(self, nletters):
            super().__init__(nletters)
            tables.append((weakref.ref(self), len(self.nodes), [len(m) for m in self.derivatives]))

    monkeypatch.setattr(lang_module, "_Terms", Recorded)
    regex = parse_regex("((a|b)(a|b))*a(a|b)|((a|b)(a|b))*", AB)
    for _ in range(2):
        compile_regex(regex, AB)
    gc.collect()
    assert [(ref(), nodes, memos) for ref, nodes, memos in tables] == [(None, 3, [0, 0])] * 2


def test_minimize_idempotent_and_canonical():
    for text in ["(ab)*", "a(ab)*", "~(a*)", "(a|b)*b(a|b)*"]:
        d = lang(text)
        assert minimize(d) == d
    # equal languages compile to structurally equal DFAs
    assert lang("a+") == lang("aa*")
    assert lang("~0") == lang("(a|b)*")


@st.composite
def _tables(draw, letters: int, max_states: int):
    """Transition rows, initial state and accepting set of a random DFA."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(*[state] * letters), min_size=n, max_size=n))
    return rows, draw(state), draw(st.frozensets(state))


def explored(alphabet, start, step, accepts):
    """The DFA reachable from `start`, numbered as `explore` numbers it."""
    states, rows, _ = explore(start, range(len(alphabet)), step, Budget(), "states")
    return Dfa(alphabet, tuple(rows), 0, frozenset(i for i, q in enumerate(states) if accepts(q)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda letters: st.tuples(st.just(Alphabet.of(letters)),
                              _tables(len(letters), 14), _tables(len(letters), 4))
))
def test_minimize_is_canonical_on_explored_input(drawn):
    # D, and D times a random E accepting by D's component: the same
    # language on as many states or more, both minimized to one DFA.
    alphabet, (rows, initial, accepting), (extra, extra_initial, _) = drawn
    d = explored(alphabet, initial, lambda q, l: rows[q][l], accepting.__contains__)
    product = explored(
        alphabet,
        (initial, extra_initial),
        lambda q, l: (rows[q[0]][l], extra[q[1]][l]),
        lambda q: q[0] in accepting,
    )
    assert product.num_states >= d.num_states
    assert list(iter_short_words(product, 6)) == list(iter_short_words(d, 6))
    minimal = minimize(d)
    assert list(iter_short_words(minimal, 6)) == list(iter_short_words(d, 6))
    assert minimize(product) == minimal
    assert minimize(minimal) == minimal


@pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
def test_letter_automata_are_built_minimal(letters):
    # a letter: initial, accepting and sink states
    alphabet = Alphabet.of(letters)
    for x in letters:
        letter = lang(x, alphabet)
        assert minimize(letter) == letter
        assert (letter.num_states, list(iter_short_words(letter, 2))) == (3, [x])


# -- regular ops ------------------------------------------------------------


def test_regular_ops_examples():
    even, odd = lang("(aa)*", A), lang("a(aa)*", A)
    assert disjoint(even, odd)
    assert included(lang("a*"), lang("~((a|b)*b(a|b)*)"))
    assert is_empty(lang("a* & (a|b)*b(a|b)*"))
    assert not disjoint(lang("a*"), lang("a|b"))
    assert equivalent(lang("(aa)* | a(aa)*", A), lang("a*", A))
    assert is_empty(lang("(aa)* & ~((aa)*)", A))
    assert complement(even) == odd


def test_short_words():
    assert list(iter_short_words(lang("(ab)*"), 4)) == ["", "ab", "abab"]
    assert list(iter_short_words(lang("a|b"), 2)) == ["a", "b"]
    assert list(iter_short_words(lang("0", A), 3)) == []


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["a", "ab", "abc"]).flatmap(
        lambda letters: st.tuples(st.just(Alphabet.of(letters)), _tables(len(letters), 6))
    ),
    st.integers(0, 4),
)
def test_short_words_are_those_of_the_full_layers(drawn, max_len):
    # Any DFA, with dead or unreachable states: pruning the words that
    # lead nowhere keeps the same words in the same order.
    alphabet, (rows, initial, accepting) = drawn
    dfa = Dfa(alphabet, tuple(rows), initial, accepting)
    assert list(iter_short_words(dfa, max_len)) == short_words_by_layers(dfa, max_len)


# -- transition monoids -----------------------------------------------------


def test_monoid_of_even_unary():
    m = transition_monoid([lang("(aa)*", A)])
    assert m.size == 2
    assert m.mult(1, 1) == 0
    assert m.accept_sets == (frozenset({0}),)
    assert m.word_for == ("", "a")


def test_monoid_of_full_language():
    m = transition_monoid([lang("~0", A)])
    assert m.size == 1
    assert m.accept_sets == (frozenset({0}),)


def test_monoid_of_ab_star():
    # hand closure: 1, a, b, aa (the zero), ab, ba
    m = transition_monoid([lang("(ab)*")])
    assert m.size == 6
    assert m.word_for == ("", "a", "b", "aa", "ab", "ba")
    assert m.accept_sets == (frozenset({0, 4}),)
    zero = 3
    assert all(m.mult(zero, i) == zero and m.mult(i, zero) == zero for i in m.elements())
    ab, ba = 4, 5
    assert m.mult(ab, ab) == ab
    assert m.mult(ab, 1) == 1  # (ab)a collapses to a
    assert m.mult(ba, 2) == 2


def test_monoid_two_languages():
    m = transition_monoid([lang("a*"), lang("(a|b)*b(a|b)*")])
    assert len(m.accept_sets) == 2
    assert image_of_word(m, "aa") in m.accept_sets[0]
    assert image_of_word(m, "aba") in m.accept_sets[1]
    assert image_of_word(m, "aba") not in m.accept_sets[0]
    validate_morphism(m)


@pytest.mark.parametrize(
    "texts, size",
    [
        (["(ab)*"], 6),
        (["a(ab)*", "(a|b)*b"], None),
        (["(a|b)*aa(a|b)*"], None),
        (["(a|b)*a(a|b)(a|b)(a|b)(a|b)", "(a|b)*b(a|b)(a|b)(a|b)(a|b)"], 63),
    ],
)
def test_mult_composes_transformations(texts, size):
    dfas = [lang(t) for t in texts]
    m = transition_monoid(dfas)
    assert size is None or m.size == size

    def run(state, word):
        for a in word:
            state = tuple(d.transitions[q][AB.index(a)] for d, q in zip(dfas, state))
        return state

    # The product states reachable from the initials, and each element's
    # action on them, read off the DFAs by running its word.
    states = {tuple(d.initial for d in dfas)}
    todo = list(states)
    while todo:
        state = todo.pop()
        for a in AB:
            nxt = run(state, a)
            if nxt not in states:
                states.add(nxt)
                todo.append(nxt)
    action = [{s: run(s, m.word_for[i]) for s in states} for i in m.elements()]
    assert len({tuple(sorted(f.items())) for f in action}) == m.size
    for i in m.elements():
        for j in m.elements():
            # word_for[i] + word_for[j] acts as word_for[i], then word_for[j]
            assert action[m.mult(i, j)] == {s: action[j][action[i][s]] for s in states}
    validate_morphism(m, assoc_limit=63)


def test_monoid_elements_draw_on_the_monoid_budget():
    # 58 states, on which a acts with order 2 * 3 * 5 * 7 * 11 * 13 * 17
    # = 510,510: the walk stops at the 101st element.
    dfas = [lang("(%s)*" % ("a" * p), A) for p in (2, 3, 5, 7, 11, 13, 17)]
    started = time.process_time()
    with pytest.raises(BudgetExceededError) as caught:
        transition_monoid(dfas, Budget(monoid=100))
    assert time.process_time() - started < 0.5
    assert str(caught.value) == "monoid budget exceeded (limit 100)"


def test_product_walks_draw_on_the_monoid_budget():
    # (a^997)* and (a^1009)* reach 997 * 1009 = 1,005,973 product states.
    x, y = lang("(%s)*" % ("a" * 997), A), lang("(%s)*" % ("a" * 1009), A)
    started = time.process_time()
    for check in (included, disjoint):
        with pytest.raises(BudgetExceededError) as caught:
            check(x, y, Budget(monoid=100))
        assert str(caught.value) == "product state budget exceeded (limit 100)"
    with pytest.raises(BudgetExceededError):
        included(x, y)
    assert time.process_time() - started < 0.5
    even, triple = lang("(aa)*", A), lang("(aaa)*", A)  # 6 product states
    assert not included(even, triple, Budget(monoid=6))
    with pytest.raises(BudgetExceededError):
        included(even, triple, Budget(monoid=5))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3), st.sampled_from(["as drawn", "complement", "repeat"]))
def test_monoid_of_the_states_is_the_product_monoid(seed, count, extra):
    # On DFAs whose states are all reachable, acting on the states side
    # by side gives the product automaton's monoid, numbered alike.
    rng = random.Random(seed)
    dfas = [random_dfa(rng, AB, max_states=5) for _ in range(count)]
    if extra == "complement":
        dfas.append(complement(rng.choice(dfas)))
    elif extra == "repeat":
        dfas.insert(rng.randrange(len(dfas) + 1), rng.choice(dfas))
    budget = Budget(monoid=200)
    try:
        expected = product_transition_monoid(dfas, budget)
    except BudgetExceededError as error:
        with pytest.raises(BudgetExceededError, match=re.escape(str(error))):
            transition_monoid(dfas, budget)
        return
    m = transition_monoid(dfas, budget)
    assert m.size == expected.size
    assert m.word_for == expected.word_for
    assert m.letter_image == expected.letter_image
    assert m.accept_sets == expected.accept_sets
    assert [m.row(i) for i in m.elements()] == [expected.row(i) for i in expected.elements()]


@settings(max_examples=40, deadline=None)
@given(drawn_instances(size_cap=40), st.booleans())
@example(random_instances(20, 8000, size_cap=40), False)
@example(random_instances(20, 8000, size_cap=40), True)
@example([[lang(t) for t in ("(a|b)*a(a|b)(a|b)(a|b)(a|b)", "(a|b)*b(a|b)(a|b)(a|b)(a|b)")]], True)
def test_singleton_products_are_one_object_per_element(pairs, general_first):
    """`mult_sets({x}, {y})` is {x * y}, and it is one object per
    element: for every pair with that product, and for the set products
    of more than one pair that come to the same value, whichever of the
    two is formed first."""
    for dfas in pairs:
        m = transition_monoid(dfas)
        merged = [
            (m.mult(x, y), fs(x, x2), fs(y))
            for x, x2 in itertools.combinations(m.elements(), 2)
            for y in m.elements()
            if m.mult(x, y) == m.mult(x2, y)
        ]
        first = {}  # each value's first object
        if general_first:
            for value, xs, ys in merged:
                first.setdefault(value, m.mult_sets(xs, ys))
        for x in m.elements():
            for y in m.elements():
                product = m.mult_sets(fs(x), fs(y))
                assert product == fs(m.mult(x, y))
                assert first.setdefault(m.mult(x, y), product) is product
        for value, xs, ys in merged:
            assert m.mult_sets(xs, ys) is first[value]


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="ab", max_size=12))
def test_morphism_agrees_with_dfas(word):
    dfas = [lang("a(ab)*"), lang("(a|b)*b"), lang("~((a|b)*aa(a|b)*)")]
    m = transition_monoid(dfas)
    image = image_of_word(m, word)
    for dfa, accept in zip(dfas, m.accept_sets):
        assert accepts(dfa, word) == (image in accept)


def test_monoid_laws_exhaustive():
    for texts in [["(ab)*"], ["a(ab)*", "(a|b)*b"], ["(a|b)*aa(a|b)*"]]:
        m = transition_monoid([lang(t) for t in texts])
        assert m.size <= 200
        validate_morphism(m, assoc_limit=200)


def test_monoid_size_sanity_bound():
    dfas = [lang("a(ab)*"), lang("(a|b)*b")]
    m = transition_monoid(dfas)
    product_states = dfas[0].num_states * dfas[1].num_states
    assert m.size <= product_states**product_states
