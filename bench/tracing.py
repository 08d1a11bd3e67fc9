"""Per-layer counters and spans, recorded from outside the program.

`install` wraps the public functions and methods each modhier module
exposes to the next. A function imported by name into another module
is replaced there too, so every call path is seen. Spans nest: a span's
self time is its duration minus that of the wrapped calls it made.
Times are process CPU time, as for the end-to-end metrics.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = ("lang", "semiring", "rating", "basis", "engines", "decide", "refcheck", "cli")

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "lang.compile_ms": "ms",
    "lang.dfa_states": "count",
    "lang.monoid_ms": "ms",
    "lang.monoid_elements": "count",
    "lang.mult_calls": "count",
    "semiring.power_mul_calls": "count",
    "semiring.power_add_calls": "count",
    "semiring.leq_calls": "count",
    "semiring.antichain_add_calls": "count",
    "semiring.antichain_peak": "count",
    "semiring.add_closure_calls": "count",
    "semiring.add_closure_ms": "ms",
    "semiring.add_closure_out": "count",
    "rating.aux_map_ms": "ms",
    "basis.iopti_calls": "count",
    "basis.iopti_ms": "ms",
    "basis.separable_ms": "ms",
    "engines.pol_imprint_ms": "ms",
    "engines.pol_passes": "count",
    "engines.bpol_iopti_ms": "ms",
    "engines.bpol_iterations": "count",
    "engines.admissible_totals_ms": "ms",
    "engines.bpol_opti_ms": "ms",
    "engines.pbpol_iopti_ms": "ms",
    "engines.pbpol_iterations": "count",
    "engines.pbpol_pointed_imprint_ms": "ms",
    "engines.runs_per_query": "count",
    "engines.imprint_maximal": "count",
    "decide.self_ms": "ms",
    "refcheck.search_ms": "ms",
    "refcheck.candidates": "count",
    "cli.self_ms": "ms",
}

# Spans: (module, function) -> (time metric, self time?).
SPANS = {
    ("lang", "parse_regex"): ("lang.compile_ms", False),
    ("lang", "compile_regex"): ("lang.compile_ms", False),
    ("lang", "transition_monoid"): ("lang.monoid_ms", False),
    ("semiring", "add_closure"): ("semiring.add_closure_ms", False),
    ("rating", "aux_bpol_map"): ("rating.aux_map_ms", False),
    ("rating", "aux_pbpol_map"): ("rating.aux_map_ms", False),
    ("rating", "canonical_covering_map"): (None, False),
    ("basis", "mod_separable"): ("basis.separable_ms", False),
    ("engines", "pol_imprint"): ("engines.pol_imprint_ms", False),
    ("engines", "bpol_iopti"): ("engines.bpol_iopti_ms", False),
    ("engines", "admissible_totals"): ("engines.admissible_totals_ms", False),
    ("engines", "bpol_opti"): ("engines.bpol_opti_ms", False),
    ("engines", "pbpol_iopti"): ("engines.pbpol_iopti_ms", False),
    ("engines", "pbpol_pointed_imprint"): ("engines.pbpol_pointed_imprint_ms", False),
    ("decide", "member"): ("decide.self_ms", True),
    ("decide", "separable"): ("decide.self_ms", True),
    ("decide", "coverable"): ("decide.self_ms", True),
    ("refcheck", "pol_mod_separator_search"): ("refcheck.search_ms", False),
    ("refcheck", "candidate_language"): (None, False),
    ("cli", "run"): ("cli.self_ms", True),
}


def _maximal(counts, result):
    counts["engines.imprint_maximal"] += len(result.maximal)


def _engine_run(metric):
    def record(counts, result):
        counts["engines.runs"] += 1
        counts[metric] += result.passes
    return record


# What a span also counts from its result.
ON_RESULT = {
    ("lang", "compile_regex"): lambda c, r: c.update({"lang.dfa_states": r.num_states}),
    ("lang", "transition_monoid"): lambda c, r: c.update({"lang.monoid_elements": r.size}),
    ("semiring", "add_closure"): lambda c, r: c.update(
        {"semiring.add_closure_calls": 1, "semiring.add_closure_out": len(r)}),
    ("engines", "pol_imprint"): lambda c, r: (_engine_run("engines.pol_passes")(c, r),
                                              _maximal(c, r)),
    ("engines", "bpol_iopti"): _engine_run("engines.bpol_iterations"),
    ("engines", "bpol_opti"): _maximal,
    ("engines", "pbpol_iopti"): _engine_run("engines.pbpol_iterations"),
    ("engines", "pbpol_pointed_imprint"): _maximal,
    ("refcheck", "candidate_language"): lambda c, r: c.update({"refcheck.candidates": 1}),
}


class Tracer:
    """Counts and span times of the queries run while installed."""

    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()
        self.peak = 0  # largest antichain seen
        self._stack = []
        self._undo = []

    def snapshot(self):
        return Counter(self.counts), Counter(self.seconds), self.peak

    def restore(self, snap) -> None:
        self.counts, self.seconds, self.peak = Counter(snap[0]), Counter(snap[1]), snap[2]

    def layers(self, queries: int) -> dict:
        """The per-layer metrics over the queries run so far."""
        values = {}
        for name, unit in LAYER_METRICS.items():
            if unit == "ms":
                values[name] = self.seconds[name] * 1000.0
            else:
                values[name] = self.counts[name]
        values["semiring.antichain_peak"] = self.peak
        values["engines.runs_per_query"] = self.counts["engines.runs"] / max(queries, 1)
        return values

    def _span(self, metric, self_time, on_result, fn):
        stack = self._stack
        clock = time.process_time

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                if metric:
                    # Counters are swapped by restore(); look them up per call.
                    self.seconds[metric] += spent - frame[0] if self_time else spent
            if on_result:
                on_result(self.counts, result)
            return result

        return wrapper

    def _count(self, metric, fn):
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _antichain_add(self, fn):
        def wrapper(chain, x):
            self.counts["semiring.antichain_add_calls"] += 1
            added = fn(chain, x)
            if len(chain) > self.peak:
                self.peak = len(chain)
            return added
        return wrapper

    def _antichain_of(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if len(result) > self.peak:
                self.peak = len(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap modhier's layer boundaries; `uninstall` puts them back."""
        mods = {name: importlib.import_module(f"modhier.{name}") for name in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("modhier")]

        def replace(module, name, wrap):
            original = getattr(mods[module], name)
            wrapped = wrap(original)
            for m in everywhere:
                if getattr(m, name, None) is original:
                    self._undo.append((m, name, original))
                    setattr(m, name, wrapped)

        def replace_method(cls, name, wrap):
            original = cls.__dict__[name]
            self._undo.append((cls, name, original))
            setattr(cls, name, wrap(original))

        for (module, name), (metric, self_time) in SPANS.items():
            on_result = ON_RESULT.get((module, name))
            replace(module, name, lambda fn, m=metric, s=self_time, o=on_result:
                    self._span(m, s, o, fn))
        replace("semiring", "antichain_of", self._antichain_of)
        semiring = mods["semiring"]
        replace_method(mods["lang"].MonoidMorphism, "mult",
                       lambda fn: self._count("lang.mult_calls", fn))
        replace_method(semiring.PowerSemiring, "mul",
                       lambda fn: self._count("semiring.power_mul_calls", fn))
        replace_method(semiring.PowerSemiring, "add",
                       lambda fn: self._count("semiring.power_add_calls", fn))
        for cls in vars(semiring).values():
            if isinstance(cls, type) and cls.__module__ == semiring.__name__ and "leq" in vars(cls):
                replace_method(cls, "leq", lambda fn: self._count("semiring.leq_calls", fn))
        replace_method(semiring.Antichain, "add", self._antichain_add)
        replace_method(mods["basis"].ModOracle, "iopti",
                       lambda fn: self._span("basis.iopti_ms", False,
                                             lambda c, r: c.update({"basis.iopti_calls": 1}), fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
