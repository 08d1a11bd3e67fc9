"""List the lines of modhier's functions that no benchmark query runs.

    python3 tools/reached.py SEED [SEED ...]

Takes every distinct argument list of the three benchmark corpora at
each seed, as drawn by bench/corpus.py, and runs each through
`modhier.cli.run` of this tree's `src` under a `sys.settrace` line
tracer. The query with the short repro deadline is left out, as it
never returns. Then prints, per module of `src/modhier`, the statement
lines inside functions, methods and lambdas that none of the queries
ran, each with its function's qualified name and its text. A line
counts as a statement line when the compiler starts bytecode there.
Module-level code runs at import and is not listed, and neither are
comprehensions at module or class level.
"""

from __future__ import annotations

import dis
import io
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modhier"
IMPORT_TIME = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def argument_lists(seeds) -> list:
    """Every distinct argument list of the corpora at `seeds`, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    lists = set()
    for seed in seeds:
        for make in corpus.WORKLOADS.values():
            for q in make(seed):
                if q.deadline >= corpus.DEADLINE:
                    lists.add(tuple(q.argv))
    return sorted(lists)


def function_lines(code, in_function: bool = False) -> dict:
    """Line number -> qualified name, for the lines where bytecode starts
    in the functions that `code` holds, nested ones included. A class
    body or a comprehension outside a function runs at import, and only
    the functions within it count."""
    lines = {}
    if in_function:
        for _, line in dis.findlinestarts(code):
            if line is not None:
                # `co_qualname` is new in Python 3.11.
                lines.setdefault(line, getattr(code, "co_qualname", code.co_name))
    for const in code.co_consts:
        if isinstance(const, CodeType):
            defined = const.co_flags & CO_OPTIMIZED and const.co_name not in IMPORT_TIME
            lines.update(function_lines(const, in_function or bool(defined)))
    return lines


def traced_run(lists) -> dict:
    """Run each argument list through `modhier.cli.run`; return the
    lines run, as a set of line numbers per source file."""
    sys.path.insert(0, str(ROOT / "src"))
    import modhier.cli

    if not Path(modhier.cli.__file__).resolve().is_relative_to(PACKAGE):
        raise SystemExit(f"modhier was imported from {modhier.cli.__file__}, not {PACKAGE}")
    ran: dict = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    sys.settrace(call)
    try:
        for argv in lists:
            modhier.cli.run(argv, io.StringIO(), io.StringIO())
    finally:
        sys.settrace(None)
    return ran


def main(argv) -> int:
    if not argv or any(not s.isdigit() for s in argv):
        print(__doc__, file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv]
    lists = argument_lists(seeds)
    ran = traced_run(lists)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = function_lines(compile(source, str(path), "exec"))
        missed = sorted(set(lines) - ran[str(path)])
        if not missed:
            continue
        print(f"{path.name}: {len(missed)} lines")
        for line in missed:
            print(f"  {line:4d}  {lines[line]}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"{len(lists)} argument lists of seeds {' '.join(map(str, seeds))}: "
          f"{total} lines in functions that no query ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
