"""Print how separation scales with the monoid on two families.

    python3 tools/scaling.py [LEVEL ...]

For k = 4 to 7, separates the kth family (a|b)*a(a|b)^(k-1) from
(a|b)*b(a|b)^(k-1) over `ab` (a transition monoid of 2^(k+1) - 1
elements) at each LEVEL, one row each: 1/2, 1 or 3/2, all three when
none is given. Then, if level 1 is among them, separates the
factor family (a|b)*w(a|b)* from its complement for w = aa, aab, aba
and abba: there the additive closure of the level-1 pair values
(`semiring.add_closure`) takes most of the time, and its cost grows
with the number of values it sums. Each case runs with the default
budget in its own child process, under a wall-clock timeout and a cap
on its address space. The child compiles the two languages, then
times `decide.separable` on them: process CPU, best of 3 runs. A
fourth run gives the tracemalloc peak. A case that outruns its timeout
reads `timeout`, and one that fails, for instance by running out of
memory under the cap, `failed`. The package is imported from this
tree's `src`.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (4, 5, 6, 7)
LEVELS = ("1/2", "1", "3/2")
FACTORS = ("aa", "aab", "aba", "abba")
TIMEOUT_S = 30
ADDRESS_SPACE = 2**31
RUNS = 3


def regexes(family: str, arg: str) -> tuple[str, str]:
    """The two languages of a case: the kth family's at k = arg, or the
    factor family's at w = arg."""
    if family == "kth":
        tail = "(a|b)" * (int(arg) - 1)
        return f"(a|b)*a{tail}", f"(a|b)*b{tail}"
    factor = f"(a|b)*{arg}(a|b)*"
    return factor, f"~({factor})"


def compiled(family: str, arg: str) -> list:
    from modhier.lang import Alphabet, compile_regex, parse_regex

    alphabet = Alphabet.of("ab")
    return [compile_regex(parse_regex(r, alphabet), alphabet) for r in regexes(family, arg)]


def measure(family: str, arg: str, level: str) -> dict:
    """Best-of-3 process CPU and the tracemalloc peak of one separation."""
    from modhier.basis import mod_cover_oracle
    from modhier.decide import separable

    oracle = mod_cover_oracle()
    l1, l2 = compiled(family, arg)
    times = []
    for _ in range(RUNS):
        started = time.process_time()
        separable(level, l1, l2, oracle)
        times.append(time.process_time() - started)
    tracemalloc.start()
    separable(level, l1, l2, oracle)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"cpu_ms": 1000 * min(times), "peak_mb": peak / 2**20}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_case(family: str, arg: str, level: str) -> str:
    """One table cell, measured in a child process."""
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--child", family, arg, level],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode != 0:
        return "failed"
    cell = json.loads(done.stdout)
    return f"{cell['cpu_ms']:.0f} ms, {cell['peak_mb']:.2f} MB"


def print_table(header: list, rows: list) -> None:
    """A markdown table; each row is a label and the cases of its cells."""
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for label, cases in rows:
        cells = [run_case(*case) for case in cases]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(*argv[1:4])))
        return 0
    levels = argv or list(LEVELS)
    unknown = [level for level in levels if level not in LEVELS]
    if unknown:
        print(f"unknown level {unknown[0]!r}: choose from {', '.join(LEVELS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from modhier.lang import transition_monoid

    header = ["`kth` separation"] + [f"k={k} ({2 ** (k + 1) - 1})" for k in SIZES]
    print_table(header, [(f"level {level}", [("kth", str(k), level) for k in SIZES])
                         for level in levels])
    if "1" not in levels:
        return 0
    print()
    sizes = [transition_monoid(compiled("factor", w)).size for w in FACTORS]
    header = ["`factor` separation"] + [f"w={w} ({n})" for w, n in zip(FACTORS, sizes)]
    print_table(header, [("level 1", [("factor", w, "1") for w in FACTORS])])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
