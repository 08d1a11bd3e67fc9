"""Tests of the benchmark itself: its checker, deadline, corpus and tracing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

cli = run.load_modhier()


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    yield
    run.signal.signal(run.signal.SIGALRM, previous)


def findings(query, output):
    checker = checks.Checker(golden={})
    checker.query(query, [output])
    checker.relations([query])
    return checker.findings


def answered(query):
    outcome = run.run_one(cli, query)
    assert outcome.code == 0, outcome.error
    return outcome.output


RESIDUES = corpus.Query("separate", "0", "a", ("(aa)*", "a(aa)*"), flags=("--witness",))
MARKED = corpus.Query("separate", "1/2", "ab", ("(a|b)*a(a|b)*", "b*"), flags=("--witness",))


def test_checker_accepts_the_programs_answers():
    assert findings(RESIDUES, answered(RESIDUES)) == []
    assert findings(MARKED, answered(MARKED)) == []


def test_checker_rejects_a_flipped_verdict():
    output = answered(RESIDUES)
    assert "RESULT: separable" in output
    flipped = output.replace("RESULT: separable", "RESULT: not-separable")
    assert any("length sets" in f for f in findings(RESIDUES, flipped))


def test_checker_rejects_a_flipped_json_verdict():
    query = corpus.Query("separate", "1/2", "ab", ("a*", "(a|b)*b(a|b)*"),
                         flags=("--json", "--emit-imprint"))
    payload = json.loads(answered(query))
    payload["answer"] = not payload["answer"]
    assert any("emitted imprint" in f for f in findings(query, json.dumps(payload)))


def test_checker_rejects_forged_witnesses():
    forged_modulus = answered(RESIDUES).replace("WITNESS: d=2", "WITNESS: d=3")
    assert any("does not separate" in f for f in findings(RESIDUES, forged_modulus))
    output = answered(MARKED)
    assert "WITNESS: separator" in output
    forged = "RESULT: separable\nWITNESS: separator d=1 markers [\"b\"]\n"
    assert any("does not separate" in f for f in findings(MARKED, forged))


def test_checker_rejects_a_monotonicity_break():
    low = corpus.Query("separate", "1/2", "ab", ("a*", "b*"))
    high = corpus.Query("separate", "3/2", "ab", ("a*", "b*"))
    checker = checks.Checker(golden={})
    checker.query(low, ["RESULT: separable\n"])
    checker.query(high, ["RESULT: not-separable\n"])
    checker.relations([low, high])
    assert any("separable at level 1/2" in f for f in checker.findings)


def test_deadline_marks_the_repro_failed_without_hanging():
    command, level, alphabet, regexes, flags = corpus.REPRO
    query = corpus.Query(command, level, alphabet, regexes, flags=flags, deadline=0.5)
    started = time.monotonic()
    outcome = run.run_one(cli, query)
    assert outcome.failed and outcome.code is None
    assert time.monotonic() - started < 10


def test_runs_are_scaled_by_the_reference_loop_around_them():
    speed = run.Speedometer()
    speed.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    speed.samples = [2 * run.REFERENCE_FLOOR] * 3 + [run.REFERENCE_TYPICAL / 2] * 3
    short = run.Outcome(0, "", "", seconds=0.001, started=1.5)
    assert speed.scale(short) == pytest.approx(0.5)
    long = run.Outcome(0, "", "", seconds=1.0, started=12.5)
    assert speed.scale(long) == pytest.approx(2.0)


def test_same_seed_same_corpus():
    for name, make in corpus.WORKLOADS.items():
        first = [q.argv for q in make(7)]
        assert first == [q.argv for q in make(7)], name
        assert len(first) >= 100, name
    assert [q.argv for q in corpus.small_mix(7)] != [q.argv for q in corpus.small_mix(8)]


COUNT_SCRIPT = """
import io, json, sys
sys.path.insert(0, {bench!r})
import run, tracing
cli = run.load_modhier()
tracer = tracing.Tracer()
tracer.install()
for argv in {argvs!r}:
    cli.run(argv, out=io.StringIO(), err=io.StringIO())
tracer.uninstall()
print(json.dumps(dict(tracer.counts), sort_keys=True))
"""


def test_traced_counts_repeat_across_processes_and_hash_seeds():
    argvs = [
        ["separate", "--level", "3/2", "--alphabet", "ab", "(a|b)*abb(a|b)*", "~((a|b)*abb(a|b)*)"],
        ["separate", "--level", "1", "--alphabet", "ab", "(a|b)*a(a|b)", "(a|b)*b(a|b)"],
        ["member", "--level", "1/2", "--alphabet", "ab", "--witness", "(a|b)*a(a|b)*"],
    ]
    script = COUNT_SCRIPT.format(bench=str(BENCH), argvs=argvs)
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        counts.append(json.loads(done.stdout))
    assert counts[0] == counts[1]
    for name in ("lang.mult_calls", "semiring.power_add_calls", "semiring.leq_calls",
                 "refcheck.candidates", "engines.runs"):
        assert counts[0][name] > 0, name
