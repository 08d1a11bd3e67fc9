"""Benchmark for modhier: one workload per process, checked answers, one JSON line.

    python3 bench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

runs every query of the workload's seeded corpus through
`modhier.cli.run` in this process, for round(seconds / ROUND_SECONDS)
rounds (corpus.py), with each query run's CPU time scaled to a reference
speed (Speedometer), then checks every answer (see checks.py) and prints
the end-to-end metrics as the last line of standard output. With `--trace 1` it runs one round with the layer
boundaries wrapped (tracing.py), prints the per-layer metrics instead and
writes one row per query run to bench/out/. `--write-golden` records the
answers of the fixed queries in bench/golden.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
SETUP_PROBES = 7
# Times are scaled to the speed of the reference loop (see Speedometer).
# Its 10th percentile and its median, in CPU seconds, on the 2.1 GHz
# machine the reference runs in the README were taken on:
REFERENCE_FLOOR = 0.0075
REFERENCE_TYPICAL = 0.0100
REFERENCE_EVERY = 0.2  # CPU seconds between two samples between queries
SAMPLE_EVERY = 0.25  # wall seconds between two samples inside a query
LONG_RUN = 0.05  # CPU seconds from which a query run is scaled by the median
SURROUNDINGS = 3.0  # CPU seconds on each side of a query run
AFTER_LONG_RUN = 5  # samples taken right after a long run

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class DeadlineExceeded(BaseException):
    """Raised into a query that outlived its deadline (never caught by modhier)."""


class Watch:
    """State of the query that SIGALRM interrupts every SAMPLE_EVERY seconds.

    One instance, WATCH, at module level, because a signal handler is
    process-wide.
    """

    until = math.inf  # time.monotonic() at which the query is stopped
    speed = None  # the Speedometer to sample, if any
    spent = 0.0  # CPU seconds the samples took


WATCH = Watch()


def _on_alarm(signum, frame):
    if time.monotonic() >= WATCH.until:
        raise DeadlineExceeded()
    if WATCH.speed is not None:
        start = time.process_time()
        WATCH.speed.sample()
        WATCH.spent += time.process_time() - start


def load_modhier():
    """Import modhier from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import modhier.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import modhier from {SRC}: {exc}")
    if not Path(modhier.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: modhier was imported from {modhier.cli.__file__}, not {SRC}")
    return modhier.cli


@dataclasses.dataclass
class Outcome:
    code: int | None  # None when the deadline stopped the query
    output: str
    error: str
    seconds: float  # process CPU time of the call
    started: float = 0.0  # process CPU time when the call began

    @property
    def failed(self) -> bool:
        return self.code != 0


def reference_seconds() -> float:
    """CPU time of a fixed pure-Python loop, a sample of the machine's current speed."""
    start = time.process_time()
    total, table = 0, {}
    for i in range(60000):
        table[i % 1000] = total
        total += i * i % 7
    return time.process_time() - start


class Speedometer:
    """Samples the reference loop and scales each query run by the samples
    taken during it and in the SURROUNDINGS seconds around it.

    A short run is taken at its best, over all the runs of its query, so it
    is scaled by the floor (10th percentile) of those samples: both drop
    the samples that a burst of contention slowed, and both move together
    when the machine runs slower for a while. A long run spans such bursts,
    so it is scaled by their median. Samples are taken between queries, at
    most every REFERENCE_EVERY CPU seconds; inside a query, every
    SAMPLE_EVERY seconds (see run_one); and a few right after a long run.
    """

    def __init__(self):
        self.times = []
        self.samples = []

    def sample(self):
        start = time.process_time()
        self.samples.append(reference_seconds())
        self.times.append(start)

    def before(self):
        if not self.times or time.process_time() - self.times[-1] >= REFERENCE_EVERY:
            self.sample()

    def after(self, outcome: Outcome):
        if outcome.seconds >= LONG_RUN:
            for _ in range(AFTER_LONG_RUN):
                self.sample()

    def run_scale(self) -> float:
        """Factor for work timed outside the rounds: the floor over the whole run."""
        return REFERENCE_FLOOR / quantile(self.samples, 0.1) if self.samples else 1.0

    def scale(self, outcome: Outcome) -> float:
        """Factor that brings the CPU time of `outcome` to the reference speed."""
        if not self.samples:
            return 1.0
        start = outcome.started - SURROUNDINGS
        end = outcome.started + outcome.seconds + SURROUNDINGS
        near = self.samples[bisect.bisect_left(self.times, start):
                            bisect.bisect_right(self.times, end)] or self.samples
        if outcome.seconds < LONG_RUN:
            return REFERENCE_FLOOR / quantile(near, 0.1)
        return REFERENCE_TYPICAL / statistics.median(near)


def run_one(cli, query, speed: Speedometer | None = None) -> Outcome:
    """Ask one query, stopping it at its deadline and sampling `speed` while it runs.

    The CPU time of the samples taken inside the query is not counted.
    """
    out, err = io.StringIO(), io.StringIO()
    WATCH.speed, WATCH.spent = speed, 0.0
    WATCH.until = time.monotonic() + query.deadline
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
    start = time.process_time()
    try:
        try:
            code = cli.run(query.argv, out=out, err=err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        code = None
    seconds = time.process_time() - start - WATCH.spent
    WATCH.speed = None
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, start)


def setup_seconds(workload: str, seed: int) -> float:
    """Median CPU time of fresh interpreters that import modhier and build the corpus."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def untimed_queries(workload: str, queries, outcomes):
    """Extra questions asked outside the timed section, for the checks.

    level1 asks each of its pairs again at levels 1/2 and 3/2, for the
    monotonicity check.
    """
    if workload != "level1":
        return []
    extra = []
    for q, runs in zip(queries, outcomes):
        if any(o.failed for o in runs):
            continue
        for level in ("1/2", "3/2"):
            extra.append(dataclasses.replace(q, level=level, flags=("--no-stats",), expect=None,
                                             fixed=False, repeat=1))
    return extra


def run_workload(cli, workload: str, seed: int, rounds: int, tracing: bool):
    """Run the workload's corpus `rounds` times.

    A round runs every query `repeat` times, in an order drawn from the
    seed, so that the repeats of a query fall at different moments.
    """
    queries = corpus.WORKLOADS[workload](seed)
    order = [i for i, q in enumerate(queries) for _ in range(q.repeat)]
    random.Random(f"{workload}/{seed}/order").shuffle(order)
    tracer = Tracer() if tracing else None
    rows = []
    outcomes = [[] for _ in queries]
    speed = Speedometer()
    gc.collect()
    if tracer:
        tracer.install()
    try:
        for _ in range(rounds):
            for i in order:
                if not tracer:
                    speed.before()
                before = tracer.snapshot() if tracer else None
                outcome = run_one(cli, queries[i], None if tracer else speed)
                outcomes[i].append(outcome)
                if not tracer:
                    speed.after(outcome)
                if tracer and outcome.failed:
                    tracer.restore(before)  # layer metrics cover answered queries only
                if tracer:
                    rows.append(trace_row(workload, seed, i, queries[i], outcome, before, tracer))
        layers = tracer.layers(len(order)) if tracer else None
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return queries, outcomes, peak_rss_mb, layers, rows, speed


def trace_row(workload, seed, index, query, outcome, before, tracer) -> dict:
    counts, spent, _ = before
    layers = {k: v - counts[k] for k, v in tracer.counts.items() if v != counts[k]}
    layers.update({k: (v - spent[k]) * 1000.0 for k, v in tracer.seconds.items()
                   if v != spent[k]})
    answer = None if outcome.failed else checks.parse_output(outcome.output).answer
    return {
        "workload": workload, "seed": seed, "index": index, "argv": query.argv,
        "monoid": None, "answer": answer, "failed": outcome.failed,
        "ms": outcome.seconds * 1000.0, "layers": layers,
    }


def check_run(cli, workload, queries, outcomes) -> checks.Checker:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    checker = checks.Checker(golden)
    extra = untimed_queries(workload, queries, outcomes)
    for q, runs in zip(queries, outcomes):
        outputs = [o.output for o in runs if not o.failed]
        if outputs:
            checker.query(q, outputs)
    for q in extra:
        outcome = run_one(cli, q)
        if outcome.failed:
            checker.fail(q, f"untimed query failed: {outcome.error.strip()}")
        else:
            checker.query(q, [outcome.output])
    checker.relations(queries + extra)
    return checker


def write_golden(cli) -> int:
    """Record the answers of the fixed queries.

    README examples carry their exact output instead, and the repro (the
    one query with a shorter deadline) never returns.
    """
    answers = {}
    for make in corpus.WORKLOADS.values():
        for q in make(0):
            if not q.fixed or q.expect_output is not None or q.deadline < corpus.DEADLINE:
                continue
            outcome = run_one(cli, q)
            if outcome.failed:
                print(f"error: {' '.join(q.argv)} failed: {outcome.error}", file=sys.stderr)
                return 1
            answers[q.key] = checks.parse_output(outcome.output).answer
    GOLDEN.write_text(json.dumps(dict(sorted(answers.items())), indent=1) + "\n")
    print(f"wrote {len(answers)} answers to {GOLDEN}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the answers of the fixed queries in golden.json")
    args = parser.parse_args(argv)
    cli = load_modhier()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.write_golden:
        return write_golden(cli)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        corpus.WORKLOADS[args.workload](args.seed)
        print(time.process_time())
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    rounds = 1 if args.trace else max(1, round(args.seconds / corpus.ROUND_SECONDS[args.workload]))
    queries, outcomes, peak_rss_mb, layers, rows, speed = run_workload(
        cli, args.workload, args.seed, rounds, bool(args.trace))
    # A query stopped at its deadline counts as the deadline, which is wall
    # time and not scaled.
    per_query = [min(q.deadline if o.failed else o.seconds * speed.scale(o) for o in runs)
                 for q, runs in zip(queries, outcomes)]
    attempted = sum(len(runs) for runs in outcomes)
    failed = sum(o.failed for runs in outcomes for o in runs)
    checker = check_run(cli, args.workload, queries, outcomes)

    for finding in checker.findings:
        print(f"WRONG: {finding}", file=sys.stderr)
    for q, runs in zip(queries, outcomes):
        if any(o.failed for o in runs):
            print(f"FAILED: {' '.join(q.argv)} (deadline {q.deadline} s)", file=sys.stderr)
    total_s = sum(per_query)
    measured = sum(min(q.deadline if o.failed else o.seconds for o in runs)
                   for q, runs in zip(queries, outcomes))
    round_s = sum(o.seconds for runs in outcomes for o in runs) / rounds
    print(f"{args.workload} seed {args.seed}: {len(queries)} queries x {rounds} rounds "
          f"of {round_s:.2f} s CPU, "
          f"total_s {total_s:.4f} (unscaled {measured:.4f}, "
          f"{len(speed.samples)} reference samples), {len(checker.findings)} wrong", file=sys.stderr)

    if args.trace:
        for row in rows:
            row["monoid"] = checker.monoid_size(queries[row["index"]])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": setup_s * speed.run_scale(),
            "total_s": total_s,
            "query_ms_p50": statistics.median(per_query) * 1000.0,
            "query_ms_p90": quantile(per_query, 0.9) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not checker.findings, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if checker.findings else 0


if __name__ == "__main__":
    sys.exit(main())
