#!/usr/bin/env python3
"""wordmap benchmark: one seeded workload, timed in-process, outputs checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a wordmap checkout; wordmap is imported from its
``src/``.  The loop is closed, with one client on one thread: each job calls
``wordmap.cli.main(argv)`` and the next starts when it returns.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, and the spans of a traced
run, are also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import tracing
import workloads
from calibration import REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
MIN_JOBS = 110  # timed jobs per run, so that more than 10 lie above p90

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli():
    """wordmap.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "wordmap" / "cli.py").is_file():
        raise SystemExit(f"error: no wordmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wordmap.cli

    if not Path(wordmap.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported wordmap from {wordmap.cli.__file__}, not {SRC}")
    return wordmap.cli


# A fresh interpreter imports wordmap.cli, then times the calibration itself,
# so that the scale factor comes from the same process on the same core.
_SETUP_CHILD = """
import time
import wordmap.cli
t = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
cal = sorted(calibrate() for _ in range(5))[2]
print(cal, time.perf_counter() - t)
"""


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing wordmap.cli, run one
    at a time, at the reference speed.  The calibration runs in the child
    after the import; its own time is taken off the wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(HERE)]

    def once():
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=60).stdout
        wall = time.perf_counter() - start
        cal, tail = map(float, out.split())
        return (wall - tail) * REF_S / cal

    once()  # fills the bytecode cache, as an installed package has one
    return statistics.median(once() for _ in range(SETUP_RUNS))


def execute(cli, argv):
    """One job: (exit code or error text, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    cpu, start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return code, out.getvalue(), wall, cpu


def verify(job, code, stdout):
    """None if the job passed its oracle, else the reason."""
    if isinstance(code, str):
        return code
    try:
        job.check(code, stdout)
    except oracles.Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"output unreadable by the oracle: {exc!r}"
    return None


class Runner:
    """Runs rounds of one workload and keeps every execution for checking."""

    def __init__(self, cli, workload, seed):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.done = []  # (job, code, stdout)
        self.timed = []  # (wall s, CPU s, speed factor) of each timed job

    def run_round(self, index, timed=True, tracer=None):
        jobs = workloads.round_jobs(self.workload, self.seed, index)
        for job_id, job in enumerate(jobs):
            gc.collect()
            before = calibrate()
            if tracer is None:
                code, out, wall, cpu = execute(self.cli, job.argv)
            else:
                code, out, wall, cpu = tracer.run_job(
                    job_id, lambda: execute(self.cli, job.argv))
            gc.collect()  # the job's garbage must not slow the calibration
            speed = 2 * REF_S / (before + calibrate())
            self.done.append((job, code, out))
            if timed:
                self.timed.append((wall, cpu, speed))
        return jobs

    def failures(self):
        """(execution index, reason) for every execution that failed its oracle."""
        bad = []
        for i, (job, code, out) in enumerate(self.done):
            why = verify(job, code, out)
            if why is not None:
                bad.append((i, f"{job.kind}: {why} [{' '.join(job.argv)[:200]}]"))
        return bad


def mix_summary(jobs) -> dict:
    """The round's input mix: every round of a workload has the same one."""
    mixes = [j.mix for j in jobs]
    lengths = [m["word_length"] for m in mixes if m["word_length"]]
    relscan = [m for m in mixes if m["kind"].startswith("relscan")]
    return {
        "jobs_per_round": len(jobs),
        "kind": dict(Counter(m["kind"] for m in mixes)),
        "ring": dict(Counter(m["ring"] for m in mixes)),
        "n": dict(Counter(str(m["n"]) for m in mixes)),
        "word_length": [min(lengths), statistics.median(lengths), max(lengths)] if lengths else None,
        "max_exponent": max(m["max_exponent"] for m in mixes),
        "relscan_small_finite_group_share": (
            sum(m["group"] == "Q8" for m in relscan) / len(relscan) if relscan else None),
    }


def stdout_sha256(runner, count):
    h = hashlib.sha256()
    for _job, _code, out in runner.done[:count]:
        h.update(out.encode())
    return h.hexdigest()


def end_to_end(samples, passed, rss_mb, setup_s):
    """The end-to-end metrics from (wall s, CPU s, speed factor) samples."""
    wall = [x[0] for x in samples]
    cpu = [x[1] for x in samples]
    return {
        "jobs_per_s": passed / sum(wall),
        "latency_p50_ms": statistics.median(wall) * 1000,
        "latency_p90_ms": statistics.quantiles(wall, n=10)[8] * 1000,
        "cpu_ms_per_job": sum(cpu) * 1000 / len(cpu),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def kind_latency(done, samples):
    """Per job kind: [jobs, median ms, min ms, max ms] at the reference speed."""
    by = {}
    for (job, _code, _out), (wall, _cpu, _f) in zip(done, samples):
        by.setdefault(job.kind, []).append(wall * 1000)
    return {k: [len(v), statistics.median(v), min(v), max(v)] for k, v in sorted(by.items())}


def untraced(cli, args):
    setup_s = measure_setup()
    runner = Runner(cli, args.workload, args.seed)
    warm = runner.run_round(0, timed=False)
    gc.collect()
    gc.freeze()  # objects alive before timing are never rescanned
    rounds, first = 0, None
    wall0 = time.perf_counter()
    while True:
        rounds += 1
        jobs = runner.run_round(rounds)
        first = first or jobs
        wall = time.perf_counter() - wall0
        if wall >= args.seconds and len(runner.timed) >= MIN_JOBS:
            break
    failures = runner.failures()
    passed = len(runner.timed) - sum(i >= len(warm) for i, _why in failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [(w * f, c * f, f) for w, c, f in runner.timed]
    metrics = end_to_end(scaled, passed, rss_mb, setup_s)
    extra = {
        "rounds": rounds, "timed_jobs": len(runner.timed), "wall_s": wall,
        "error_rate": len(failures) / len(runner.done),
        "raw": end_to_end(runner.timed, passed, rss_mb, setup_s),
        "speed": statistics.median(f for _w, _c, f in runner.timed),
        "kind_latency_ms": kind_latency(runner.done[len(warm):], scaled),
        "mix": mix_summary(first),
        "stdout_sha256_round0": stdout_sha256(runner, len(warm)),
    }
    return runner, failures, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extra


def traced(cli, args):
    """Round 1 untraced, then round 2 traced.  Round 2 has fresh inputs, so
    nothing cached by round 1 makes it cheaper; its counts repeat exactly for
    a seed.  Every round has the same mix, so the CPU ratio of round 2 to
    round 1 is the tracing overhead.  Round 2 then runs once more untraced,
    untimed, to show that tracing leaves the outputs unchanged."""
    runner = Runner(cli, args.workload, args.seed)
    runner.run_round(0, timed=False)
    gc.collect()
    gc.freeze()
    plain = len(runner.run_round(1))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs = runner.run_round(2, tracer=tracer)
    finally:
        tracer.restore()
    cpu = [c * f for _w, c, f in runner.timed]
    cpu_plain, cpu_traced = sum(cpu[:plain]), sum(cpu[plain:])
    traced_out = [out for _j, _c, out in runner.done[-len(jobs):]]
    runner.run_round(2, timed=False)  # untraced, after the measurement
    plain_out = [out for _j, _c, out in runner.done[-len(jobs):]]

    failures = runner.failures()
    failed = {i for i, _why in failures}
    first_traced = len(runner.done) - 2 * len(jobs)
    for i, job in enumerate(jobs):
        if traced_out[i] != plain_out[i] and first_traced + i not in failed:
            failures.append((first_traced + i, f"{job.kind}: tracing changed the output"))
    per_job = tracer.aggregate()
    for job_id, (_w, _c, speed) in enumerate(runner.timed[plain:]):
        counts = per_job[job_id]
        for key in [k for k in counts if k.endswith(".self_s")]:
            counts[key] *= speed  # self times at the reference speed, like end-to-end times
    chi = sum(j.samples for j in jobs)
    out_bytes = sum(len(o.encode()) for o in traced_out)
    total = Counter()
    for counts in per_job.values():
        total.update(counts)
    metrics = tracing.layer_metrics(total, chi, out_bytes)
    metrics["trace.overhead_ratio"] = cpu_traced / cpu_plain
    groups = {}
    for i, j in enumerate(jobs):
        groups.setdefault(j.kind, []).append(i)
        if j.kind.startswith("extend"):
            groups.setdefault(f"{j.kind}/n{j.mix['n']}", []).append(i)
    by_kind = {}
    for kind, ids in sorted(groups.items()):
        c = Counter()
        for i in ids:
            c.update(per_job.get(i, Counter()))
        by_kind[kind] = tracing.layer_metrics(
            c, sum(jobs[i].samples for i in ids), sum(len(traced_out[i].encode()) for i in ids))
        by_kind[kind]["jobs"] = len(ids)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans, [j.kind for j in jobs])
    units = {k: "ratio" if k == "trace.overhead_ratio" else tracing.unit_of(k) for k in metrics}
    extra = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.t0),
             "mix": mix_summary(jobs), "by_kind": by_kind}
    return runner, failures, {k: (v, units[k]) for k, v in metrics.items()}, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    run = traced if args.trace else untraced
    runner, failures, metrics, extra = run(cli, args)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for key in ("error_rate", "raw", "speed", "mix", "stdout_sha256_round0", "spans_file"):
        if key in extra:
            print(f"{key}: {json.dumps(extra[key], sort_keys=True)}")
    for _i, why in failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(runner.done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {**result, **extra, "failures": [why for _i, why in failures]}
    path.write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
