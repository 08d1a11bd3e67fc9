"""Command-line front end.

Four query commands (member, separate, cover, imprint) plus a batch
driver that replays one query per line from a file. Exit codes: 0 for
an answered query of either polarity, 2 for input errors, 3 for an
exceeded resource budget, 4 for an unsupported basis or level.

Each piece of front-end work is done once per query. A well-formed
query line (a query command, options spelled out in full from
QUERY_OPTIONS with valid values, one run of positionals that fits the
command, `--level` and `--alphabet` given) is read in one scan of that
table, with no parser built. argparse owns help, usage errors and
irregular spellings: any other line is parsed whole by a top-level
parser built for that line, and no parser outlives its line. Each
query command is declared once, in QUERY_COMMANDS: its help, its
regexes and its result words. A query compiles each distinct language
it names once, in argument order, and a regex that complements
another (`~r` beside `r`) is `r`'s DFA with acceptance flipped.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from .basis import oracle_for
from .decide import (
    LEVELS,
    Verdict,
    check_imprint_level,
    coverable,
    imprinted,
    maximal_in_order,
    member,
    separable,
)
from .errors import Budget, BudgetExceededError, InputError, UnsupportedError
from .lang import Alphabet, compile_regex, complement, parse_regex

def _positive_int(text: str) -> int:
    """A budget flag's value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# The options every query command takes, by name, as `add_argument`
# takes them: `build_parser` declares them from this table, and `_scan`
# reads well-formed lines by it.
QUERY_OPTIONS = {
    "--level": {"required": True, "choices": LEVELS, "help": "hierarchy level"},
    "--alphabet": {"required": True, "help": "alphabet letters, e.g. ab"},
    "--basis": {"default": "mod", "help": "basis oracle name (default mod)"},
    "--json": {"action": "store_true", "help": "emit one JSON object"},
    "--witness": {"action": "store_true", "help": "attach a witness when available"},
    "--emit-imprint": {"action": "store_true", "help": "also print the computed imprint"},
    "--max-states": {
        "type": _positive_int,
        "default": Budget().states,
        "help": "budget for automaton states",
    },
    "--max-antichain": {
        "type": _positive_int,
        "default": Budget().antichain,
        "help": "antichain size budget for the engines",
    },
    "--no-stats": {"action": "store_true", "help": "omit statistics for reproducible output"},
}

# Each query command's help; its positionals, as (name, nargs), which
# hold its regexes in the order they are compiled; and the result word
# of a positive answer, which `not-` prefixes for a negative one (an
# imprint has no answer).
QUERY_COMMANDS = {
    "member": ("is the language at the level?", (("regex", None),), "member"),
    "separate": ("is L1 separable from L2?", (("regex1", None), ("regex2", None)), "separable"),
    "cover": ("is the target coverable?", (("target", None), ("constraints", "+")), "coverable"),
    "imprint": ("print the imprint of the inputs", (("regexes", "+"),), None),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, spec in QUERY_OPTIONS.items():
        common.add_argument(name, **spec)

    parser = argparse.ArgumentParser(
        prog="modhier",
        description="Decide separation, covering, and membership for regular languages "
        "in concatenation hierarchies over length-residue bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, _) in QUERY_COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=text)
        for name, nargs in positionals:
            p.add_argument(name, nargs=nargs)
    p = sub.add_parser("batch", help="run one query per line from a file")
    p.add_argument("file")
    return parser


def _scan(argv: list) -> argparse.Namespace | None:
    """The arguments of a well-formed query line, read in one pass; None
    for any other line.

    A line is well formed when it starts with a query command; every
    token that starts with `-` is a name in QUERY_OPTIONS, written out
    in full, and a value option is followed by a token that does not
    start with `-` and passes argparse's own check of it; the
    positionals are one run of tokens whose count fits the command; and
    every required option is given. A repeated option keeps its last
    value, as in argparse. Such a line gives the namespace `parse_args`
    gives. The scan never prints: help, usage errors and irregular
    spellings (abbreviations, `=`, `--`, split positionals, `-` or `-1`
    as a regex) are left to argparse.
    """
    command = QUERY_COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0]}
    words = []
    closed = False  # whether an option has followed the positionals
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if token[:1] != "-":
            if closed:
                return None  # a second run of positionals
            words.append(token)
            continue
        spec = QUERY_OPTIONS.get(token)
        if spec is None:
            return None
        closed = bool(words)
        if "action" in spec:
            value = True
        else:
            if i == end or argv[i][:1] == "-":
                return None
            value = argv[i]
            i += 1
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except argparse.ArgumentTypeError:
                    return None
            if value not in spec.get("choices", (value,)):
                return None
        values[token[2:].replace("-", "_")] = value
    positionals = command[1]
    *heads, (last, nargs) = positionals
    if len(words) < len(positionals) or (nargs is None and len(words) > len(positionals)):
        return None
    for (name, _), word in zip(heads, words):
        values[name] = word
    values[last] = words[len(heads):] if nargs else words[-1]
    for name, spec in QUERY_OPTIONS.items():
        dest = name[2:].replace("-", "_")
        if dest not in values:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default", False)  # a flag is False by default
    return argparse.Namespace(**values)


def _parse(argv: list) -> argparse.Namespace:
    """The arguments of `argv`, parsed once: a well-formed query line by
    `_scan`, which builds no parser, and any other line by a top-level
    parser built for it, whose `parse_args` prints help and usage errors.
    """
    return _scan(argv) or build_parser().parse_args(argv)


def _format_value(value) -> str:
    return "{" + ",".join(str(i) for i in sorted(value)) + "}"


def _imprint_text(morphism, imprint, out) -> None:
    out.write(f"MONOID: {morphism.size} elements\n")
    for i in range(morphism.size):
        out.write(f'  {i} = "{morphism.word_for[i]}"\n')
    maximal = maximal_in_order(imprint)
    cells = [_format_value(t) if s is None else "(%d,%s)" % (s, _format_value(t)) for s, t in maximal]
    out.write("IMPRINT: " + " ".join(cells) + "\n")


def _imprint_json(morphism, imprint) -> dict:
    return {
        "pointed": imprint.pointed,
        "monoid": list(morphism.word_for),
        "maximal": [sorted(t) if s is None else [s, sorted(t)] for s, t in maximal_in_order(imprint)],
    }


def _witness_text(witness: dict) -> str:
    if "modulus" in witness:
        return f"WITNESS: d={witness['modulus']}"
    if "blocking" in witness:
        blocking = witness["blocking"]
        image = _format_value(blocking["image"])
        if "element" in blocking:
            return 'WITNESS: blocking element %d word "%s" image %s' % (
                blocking["element"],
                blocking["word"],
                image,
            )
        return f"WITNESS: blocking image {image}"
    fields = witness["separator"]
    return f"WITNESS: separator d={fields['modulus']} markers {json.dumps(fields['markers'])}"


def _stats_line(stats: dict) -> str:
    return "STATS: " + " ".join(f"{k}={v}" for k, v in stats.items()) + "\n"


def _emit(args, verdict: Verdict, imprint_parts, out) -> None:
    if args.json:
        payload = {"command": args.command, "level": args.level, "basis": args.basis}
        if verdict.answer is not None:
            payload["answer"] = verdict.answer
        if verdict.witness is not None:
            payload["witness"] = verdict.witness
        if imprint_parts is not None:
            payload["imprint"] = _imprint_json(*imprint_parts)
        if not args.no_stats:
            payload["stats"] = verdict.stats
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if verdict.answer is not None:
        word = QUERY_COMMANDS[args.command][2]
        out.write(f"RESULT: {word if verdict.answer else 'not-' + word}\n")
    if verdict.witness is not None:
        out.write(_witness_text(verdict.witness) + "\n")
    if imprint_parts is not None:
        _imprint_text(*imprint_parts, out)
    if not args.no_stats:
        out.write(_stats_line(verdict.stats))


def _run_query(args, out) -> int:
    oracle = oracle_for(args.basis)
    alphabet = Alphabet.of(args.alphabet)
    budget = Budget(states=args.max_states, antichain=args.max_antichain)
    # Each regex is parsed and compiled in argument order, so the first
    # regex with an error reports it. A program's core drops its trailing
    # complements: `~r` derives as `r` does with acceptance flipped, so
    # each core is compiled once and complemented as often as needed.
    regexes = []
    for name, nargs in QUERY_COMMANDS[args.command][1]:
        value = getattr(args, name)
        regexes += value if nargs else [value]
    cores = {}  # core program -> its DFA
    dfas = []
    for text in regexes:
        program = parse_regex(text, alphabet)
        end = len(program)
        while program[end - 1] == ("~", None):
            end -= 1
        core = program[:end]
        dfa = cores.get(core)
        if dfa is None:
            dfa = cores[core] = compile_regex(core, alphabet, budget)
        dfas.append(complement(dfa) if (len(program) - end) % 2 else dfa)

    show = args.emit_imprint or args.command == "imprint"
    # Covering refuses level 0 on its own terms; the other commands
    # would decide it in full before finding no imprint to show.
    if show and args.command != "cover":
        check_imprint_level(args.level)
    if args.command == "imprint":
        verdict = imprinted(args.level, dfas, oracle, budget)
    elif args.command == "member":
        verdict = member(args.level, dfas[0], oracle, budget, args.witness)
    elif args.command == "separate":
        verdict = separable(args.level, dfas[0], dfas[1], oracle, budget, args.witness)
    else:
        verdict = coverable(args.level, dfas[0], dfas[1:], oracle, budget, args.witness)
    _emit(args, verdict, verdict.imprint if show else None, out)
    return 0


def _run_batch(args, out, err) -> int:
    status = 0
    try:
        text = Path(args.file).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.file}: {exc}") from None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.write(f"QUERY: {line}\n")
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            err.write(f"error: {exc}\n")
            code = 2
        else:
            if tokens and tokens[0] == "batch":
                err.write("error: batch files cannot nest batch commands\n")
                code = 2
            else:
                code = run(tokens, out=out, err=err)
        if code != 0 and status == 0:
            status = code
    return status


def run(argv=None, out=None, err=None) -> int:
    """Parse and execute one command line; returns the exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        # argparse prints help to sys.stdout, usage errors to sys.stderr.
        with redirect_stdout(out), redirect_stderr(err):
            args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "batch":
            return _run_batch(args, out, err)
        return _run_query(args, out)
    except BudgetExceededError as exc:
        err.write(f"error: {exc}\n")
        return 3
    except UnsupportedError as exc:
        err.write(f"error: {exc}\n")
        return 4
    except (InputError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
