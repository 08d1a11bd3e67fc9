"""Judging the program's answers without the engine that produced them.

`parse_output` reads the text or JSON a query printed. `Checker` then
holds every answer of a run to the checks below; each finding is a
string, and any finding fails the run.

* Level 0 is decided again from the two length sets (`langs`), and a
  level-0 modulus or a level-1/2 separator witness is verified by exact
  inclusion and disjointness over the benchmark's own product walk.
* Languages that intersect are never separable (or coverable).
* Separable at a level implies separable at every higher level.
* Separation at levels 0 and 1 is symmetric.
* `cover` with one constraint answers as `separate`; adding a constraint
  never turns coverable into not coverable.
* Languages whose level is known by construction are members there.
* The monoid size in the statistics, and the words listed with an
  imprint, match the benchmark's own product automaton; an emitted
  imprint gives the same verdict when scanned for a blocking element.
* `--no-stats` output repeats byte for byte; answers repeat.
* Answers of fixed queries match the stored answers in golden.json.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

import langs
from corpus import LEVELS

RESULT_WORDS = {
    "member": True, "not-member": False,
    "separable": True, "not-separable": False,
    "coverable": True, "not-coverable": False,
}

_POINTED_CELL = re.compile(r"\((\d+),\{([\d,]*)\}\)")
_PLAIN_CELL = re.compile(r"\{([\d,]*)\}")
_BLOCKING = re.compile(r'blocking element (\d+) word "([a-z]*)" image \{([\d,]*)\}$')


def _ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x]


class Parsed:
    """Answer, witness, imprint and statistics read from one output."""

    def __init__(self, answer=None, witness=None, imprint=None, stats=None):
        self.answer = answer
        self.witness = witness
        self.imprint = imprint  # (pointed, words, frozenset of maximal elements)
        self.stats = stats


def _imprint(pointed, words, maximal):
    if pointed:
        cells = frozenset((s, frozenset(t)) for s, t in maximal)
    else:
        cells = frozenset(frozenset(t) for t in maximal)
    return (pointed, tuple(words), cells)


def parse_output(text: str) -> Parsed:
    if text.startswith("{"):
        payload = json.loads(text)
        imprint = payload.get("imprint")
        if imprint is not None:
            imprint = _imprint(imprint["pointed"], imprint["monoid"], imprint["maximal"])
        return Parsed(payload.get("answer"), payload.get("witness"), imprint,
                      payload.get("stats"))
    parsed = Parsed()
    words = []
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        if head == "RESULT":
            parsed.answer = RESULT_WORDS[rest]
        elif head == "WITNESS":
            parsed.witness = _parse_witness(rest)
        elif head.startswith("  ") and " = " in line:
            words.append(json.loads(line.split(" = ", 1)[1]))
        elif head == "IMPRINT":
            pointed = rest.startswith("(")
            if pointed:
                cells = [(int(s), _ints(t)) for s, t in _POINTED_CELL.findall(rest)]
            else:
                cells = [_ints(t) for t in _PLAIN_CELL.findall(rest)]
            parsed.imprint = _imprint(pointed, words, cells)
        elif head == "STATS":
            parsed.stats = dict(pair.split("=", 1) for pair in rest.split())
    return parsed


def _parse_witness(text: str) -> dict:
    if text.startswith("d="):
        return {"modulus": int(text[2:])}
    if text.startswith("separator d="):
        modulus, _, markers = text[len("separator d="):].partition(" markers ")
        return {"separator": {"modulus": int(modulus), "markers": json.loads(markers)}}
    match = _BLOCKING.match(text)
    if match:
        return {"blocking": {"element": int(match[1]), "word": match[2],
                             "image": _ints(match[3])}}
    if text.startswith("blocking image {"):
        return {"blocking": {"image": _ints(text[len("blocking image {"):-1])}}
    raise ValueError(f"unreadable witness {text!r}")


class Checker:
    """Collects the answers of one run and the findings against them."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.findings = []
        self._automata = {}
        self._monoids = {}
        self.answers = {}  # query key -> answer
        self.imprints = {}  # (level, alphabet, regexes, member?) -> [(query, imprint)]

    def fail(self, query, message: str) -> None:
        self.findings.append(f"{' '.join(query.argv)}: {message}")

    def automaton(self, regex: str, alphabet: str):
        key = (regex, alphabet)
        if key not in self._automata:
            self._automata[key] = langs.automaton(regex, alphabet)
        return self._automata[key]

    def inputs(self, query):
        """The automata of the languages the program folds into its monoid."""
        automata = [self.automaton(r, query.alphabet) for r in query.regexes]
        if query.command == "member":
            automata.append(automata[0].complement())
        return automata

    def monoid_size(self, query) -> int:
        key = (query.alphabet, query.regexes, query.command == "member")
        if key not in self._monoids:
            self._monoids[key] = langs.monoid_size(self.inputs(query))
        return self._monoids[key]

    def query(self, query, outputs) -> None:
        """Check every output one query printed (one per repeat)."""
        if query.expect_output is not None and outputs[0] != query.expect_output:
            self.fail(query, f"printed {outputs[0]!r}, README says {query.expect_output!r}")
        if "--no-stats" in query.flags and len(set(outputs)) > 1:
            self.fail(query, "--no-stats output differs between repeats")
        parsed = [parse_output(text) for text in outputs]
        if len({p.answer for p in parsed}) > 1:
            self.fail(query, "answer differs between repeats")
        first = parsed[0]
        if query.command == "imprint":
            if first.imprint is None:
                self.fail(query, "no imprint printed")
                return
            self._check_imprint(query, first.imprint, None)
            self._remember_imprint(query, first.imprint)
            return
        if first.answer is None:
            self.fail(query, "no answer printed")
            return
        self.answers[query.key] = first.answer
        self._check_answer(query, first)

    def _check_answer(self, query, parsed) -> None:
        answer = parsed.answer
        automata = self.inputs(query)
        target, others = automata[0], automata[1:]
        if query.expect is not None and answer != query.expect:
            self.fail(query, f"answer {answer}, but the level is known by construction")
        if query.fixed and query.expect_output is None:
            stored = self.golden.get(query.key)
            if stored is None:
                self.fail(query, "no stored answer in golden.json")
            elif stored != answer:
                self.fail(query, f"answer {answer}, stored answer {stored}")
        if answer and langs.intersect_all([target] + others):
            self.fail(query, "the languages intersect, yet the answer is positive")
        if query.level == "0":
            modulus = langs.level0_modulus(target, others[0])
            if answer != (modulus is not None):
                self.fail(query, f"level-0 answer {answer}, length sets say {modulus is not None}")
        stats = parsed.stats or {}
        if "monoid" in stats and int(stats["monoid"]) != self.monoid_size(query):
            self.fail(query, f"monoid {stats['monoid']}, expected {self.monoid_size(query)}")
        witness = parsed.witness or {}
        if "modulus" in witness:
            if not (answer and langs.residue_separator_ok(witness["modulus"], target, others[0])):
                self.fail(query, f"modulus {witness['modulus']} does not separate")
        if "separator" in witness:
            sep = witness["separator"]
            regex = langs.marked_product_regex(sep["modulus"], sep["markers"], query.alphabet)
            k = self.automaton(regex, query.alphabet)
            if not (answer and langs.included(target, k) and not langs.intersects(k, others[0])):
                self.fail(query, f"separator {sep} does not separate")
        blocking = witness.get("blocking")
        if blocking is not None and (answer or ("word" in blocking
                                                and not target.accepts(blocking["word"]))):
            self.fail(query, f"blocking witness {blocking} is not in the target")
        if parsed.imprint is not None:
            self._check_imprint(query, parsed.imprint, answer)
            self._remember_imprint(query, parsed.imprint)

    def _remember_imprint(self, query, imprint) -> None:
        key = (query.level, query.alphabet, query.regexes, query.command == "member")
        self.imprints.setdefault(key, []).append((query, imprint))

    def _check_imprint(self, query, imprint, answer) -> None:
        """Monoid words against our automata; verdict against a blocking scan."""
        pointed, words, cells = imprint
        automata = self.inputs(query)
        states = sorted(langs.reachable_tuples(automata))
        images = set()
        for word in words:
            image = []
            for qs in states:
                for letter in word:
                    i = query.alphabet.index(letter)
                    qs = tuple(a.delta[q][i] for a, q in zip(automata, qs))
                image.append(qs)
            images.add(tuple(image))
        if len(images) != len(words) or len(words) != self.monoid_size(query):
            self.fail(query, "imprint monoid words do not match the monoid")
            return
        if answer is None:
            return
        target, others = automata[0], automata[1:]
        member = [[a.accepts(w) for w in words] for a in automata]

        def meets(values, i):
            return any(member[i][t] for t in values)

        if pointed:
            blocked = any(member[0][s] and all(meets(t, i + 1) for i in range(len(others)))
                          for s, t in cells)
        else:
            blocked = any(meets(t, 0) and all(meets(t, i + 1) for i in range(len(others)))
                          for t in cells)
        if answer == blocked:
            self.fail(query, f"answer {answer}, but the emitted imprint says {not blocked}")

    def relations(self, queries) -> None:
        """Monotonicity, symmetry and cover/separate agreement across queries."""
        by_shape = defaultdict(dict)
        for q in queries:
            if q.key in self.answers:
                by_shape[(q.command, q.alphabet, q.regexes)][q.level] = (q, self.answers[q.key])
        for (command, alphabet, regexes), by_level in by_shape.items():
            asked = [by_level[level] for level in LEVELS if level in by_level]
            for (low, low_answer), (high, high_answer) in zip(asked, asked[1:]):
                if low_answer and not high_answer:
                    self.fail(high, f"not separable here, but separable at level {low.level}")
            if command == "separate" and len(regexes) == 2:
                mirror = by_shape.get((command, alphabet, regexes[::-1]), {})
                for level in ("0", "1"):
                    if level in by_level and level in mirror:
                        (q, answer), (_, other) = by_level[level], mirror[level]
                        if answer != other:
                            self.fail(q, "answer differs from the reversed pair (not symmetric)")
            if command == "cover":
                sep = by_shape.get(("separate", alphabet, regexes[:2]), {})
                fewer = by_shape.get(("cover", alphabet, regexes[:2]), {})
                for level, (q, answer) in by_level.items():
                    if len(regexes) == 2 and level in sep and sep[level][1] != answer:
                        self.fail(q, "cover with one constraint differs from separate")
                    if len(regexes) > 2 and level in fewer and fewer[level][1] and not answer:
                        self.fail(q, "an extra constraint made the target not coverable")
        for seen in self.imprints.values():
            first_query, first = seen[0]
            for q, imprint in seen[1:]:
                if imprint != first:
                    self.fail(q, f"imprint differs from that of: {' '.join(first_query.argv)}")
