"""Print how separation scales with the monoid on the kth family.

    python3 tools/scaling.py

For k = 4 to 7, separates (a|b)*a(a|b)^(k-1) from (a|b)*b(a|b)^(k-1)
over `ab` (a transition monoid of 2^(k+1) - 1 elements) at levels 1/2,
1 and 3/2, with the default budget. Each case runs in its own child
process, under a wall-clock timeout and a cap on its address space. The
child compiles the two languages, then times `decide.separable` on
them: process CPU, best of 3 runs. A fourth run gives the tracemalloc
peak. A case that outruns its timeout reads `timeout`, and one that
fails, for instance by running out of memory under the cap, `failed`.
The package is imported from this tree's `src`.
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
TIMEOUT_S = 30
ADDRESS_SPACE = 2**31
RUNS = 3


def measure(k: int, level: str) -> dict:
    """Best-of-3 process CPU and the tracemalloc peak of one separation."""
    from modhier.basis import mod_cover_oracle
    from modhier.decide import separable
    from modhier.lang import Alphabet, compile_regex, parse_regex

    alphabet, oracle = Alphabet.of("ab"), mod_cover_oracle()
    l1, l2 = (
        compile_regex(parse_regex(f"(a|b)*{x}" + "(a|b)" * (k - 1), alphabet), alphabet)
        for x in "ab"
    )
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


def run_case(k: int, level: str) -> str:
    """One table cell, measured in a child process."""
    try:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(k), level],
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


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(int(argv[1]), argv[2])))
        return 0
    header = ["`kth` separation"] + [f"k={k} ({2 ** (k + 1) - 1})" for k in SIZES]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for level in LEVELS:
        cells = [run_case(k, level) for k in SIZES]
        print(f"| level {level} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
