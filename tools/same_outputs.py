"""Compare this tree's command-line outputs with those of an earlier revision.

    python3 tools/same_outputs.py PARENT_REV SEED [SEED ...]

Extracts PARENT_REV with `git archive` into a temporary directory and
takes every distinct argument list of the three benchmark corpora at
each seed, from this tree's bench/corpus.py: as drawn, with
`--no-stats`, and with `--no-stats` plus each of `--emit-imprint`,
`--witness` and `--json`. The query with the short repro deadline is
left out, as it never returns. To these it adds the lines of
tests/command_lines.py: the help, malformed and irregular lines and
those of the answer table, so usage errors, argparse's own readings
and the table's exit codes and outputs are compared too. Each list
runs through `modhier.cli.run` of both trees, each tree in its own
subprocess; then all of them run again as the lines of one `batch`
file (one `shlex.join` per line), so the parsing of `batch` lines is
compared too. Last, each file of the batch table is written out and
run as `batch FILE`, so comments, blank lines, unsplittable lines,
undecodable bytes and nested `batch` lines are compared too. Every
difference in exit code, stdout or stderr is printed, as a diff of
lines, with the `ms` timings masked. Exits 1 if there is any
difference, 0 if there is none.
"""

from __future__ import annotations

import difflib
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MS = re.compile(r'(ms=|"ms": )[0-9.e+-]+')
VARIANTS = (
    (),
    ("--no-stats",),
    ("--emit-imprint", "--no-stats"),
    ("--witness", "--no-stats"),
    ("--json", "--no-stats"),
)


def argument_lists(seeds) -> tuple:
    """Every distinct argument list of the corpora at `seeds`, and every
    command line of tests/command_lines.py, in a fixed order; and the
    files of its batch table, as text or bytes."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import corpus
    from command_lines import ANSWERS, BATCH_ANSWERS, HELP_LINES, IRREGULAR_LINES, MALFORMED_LINES

    lists = {*ANSWERS, *HELP_LINES, *MALFORMED_LINES, *IRREGULAR_LINES}
    for seed in seeds:
        for make in corpus.WORKLOADS.values():
            for q in make(seed):
                if q.deadline < corpus.DEADLINE:
                    continue
                for extra in VARIANTS:
                    flags = q.flags + tuple(f for f in extra if f not in q.flags)
                    lists.add((q.command, "--level", q.level, "--alphabet", q.alphabet,
                               *flags, *q.regexes))
    return sorted(lists), list(BATCH_ANSWERS)


def run_all(src: str, lists_file: str, results_file: str) -> None:
    """Run every argument list through the `modhier.cli` under `src`."""
    sys.path.insert(0, src)
    import modhier.cli

    if not Path(modhier.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"modhier was imported from {modhier.cli.__file__}, not {src}")
    results = []
    for argv in json.loads(Path(lists_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        code = modhier.cli.run(argv, out, err)
        results.append([code, MS.sub(r"\1#", out.getvalue()), MS.sub(r"\1#", err.getvalue())])
    Path(results_file).write_text(json.dumps(results))


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        run_all(*argv[1:])
        return 0
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_rev, seeds = argv[0], [int(s) for s in argv[1:]]
    lists, batch_files = argument_lists(seeds)
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        batch_file = Path(tmp) / "queries.txt"
        batch_file.write_text("".join(shlex.join(argv) + "\n" for argv in lists))
        runs = [*lists, ("batch", str(batch_file))]
        for i, data in enumerate(batch_files):
            path = Path(tmp) / f"batch{i}.txt"
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
            runs.append(("batch", str(path)))
        lists_file = Path(tmp) / "lists.json"
        lists_file.write_text(json.dumps(runs))
        results = [Path(tmp) / "parent.json", Path(tmp) / "this.json"]
        children = [
            subprocess.Popen([sys.executable, __file__, "--child", str(src), str(lists_file), str(out)])
            for src, out in zip((parent / "src", ROOT / "src"), results)
        ]
        if any([child.wait() for child in children]):
            print("error: a tree's run failed", file=sys.stderr)
            return 2
        before, after = (json.loads(out.read_text()) for out in results)
    differences = 0
    for args, old, new in zip(runs, before, after):
        for what, x, y in zip(("exit code", "stdout", "stderr"), old, new):
            if x != y:
                differences += 1
                print(f"{shlex.join(args)}: {what}")
                if what == "exit code":
                    print(f"  parent {x}, this tree {y}")
                else:
                    diff = difflib.unified_diff(x.splitlines(), y.splitlines(), "parent",
                                                "this tree", n=1, lineterm="")
                    print("\n".join("  " + line for line in diff))
    print(f"{len(lists)} argument lists of seeds {' '.join(map(str, seeds))}, "
          f"one by one and as one batch file, and {len(batch_files)} batch files, "
          f"against {parent_rev}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
