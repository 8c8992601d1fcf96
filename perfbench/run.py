"""Closed-loop benchmark of the qlhl library, checked operation by operation.

One process drives one workload with one thread of load: it generates an
operation's inputs, times the library call, then checks the result, and
only then generates the next operation. Generation and checks sit outside
the timed region.

    python3 perfbench/run.py --workload pa_bulk --seed 1 --seconds 28 --trace 0

With --trace 0 the run measures the end-to-end metrics: it sets up the
workload in fresh interpreters to time set-up, then loops for --seconds of
wall time, and on until at least MIN_OPS operations and MIN_DECKS decks
have run. With --trace 1 it runs a fixed number of operations four times,
alternately plain and with every layer's entry points wrapped, prints the
per-layer metrics of the first traced pass, checks that the exact counters
of the two traced passes agree, and writes that pass's spans to
perfbench/out/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it record the
environment and each metric by name and unit. The library is imported
from src/ next to this directory, with its default backend selection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100          # so that a raw p90 has ten samples beyond it
MIN_DECKS = 4          # so that every kind has several samples
SETUP_RUNS = 7
ROTATE_S = 0.5         # wall time on one CPU before moving to the next
LOOP_DEADLINE_S = 140.0  # measuring stops here regardless, to exit in time
MAX_REPORTED_FAILURES = 5

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "bits_per_s": "bit/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


def execute(op, tracer=None, op_id=0):
    """Time one call into the library; returns (seconds, result, error)."""
    if tracer is not None:
        with tracer.op(op_id):
            return execute(op)
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # judged by `judge`: expected refusal or failure
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def judge(op, out, err) -> bool:
    """True when the operation did what its inputs call for."""
    if op.refusal is not None:
        return isinstance(err, op.refusal)
    if err is not None:
        return False
    return bool(op.check(out))


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, out, err) -> bool:
        self.attempted += 1
        try:
            ok = judge(op, out, err)
        except Exception as exc:  # a check that raises is a failed check
            ok, err = False, exc
        if not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {self.attempted} failed: {err!r}"
                      if err is not None else
                      f"op {self.attempted} failed its output check",
                      file=sys.stderr)
        return ok


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_setup(workload_name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + proc.stderr.decode(errors="replace"))
    return statistics.median(samples)


def warm_up(workload) -> None:
    for op in workload.warmup():
        execute(op)


def timed_run(workload, seconds: float, started: float):
    """End-to-end metrics of one closed-loop run."""
    setup_s = measure_setup(workload.name, workload.seed)
    warm_up(workload)
    tally = Tally()
    # compact storage, so that a faster library running more operations
    # does not raise peak_rss_mb by much
    latencies = {workload.cost_key(k): array("d") for k in workload.deck}
    bits = {kind: array("q") for kind in workload.deck}
    busy = 0.0
    min_ops = max(MIN_OPS, MIN_DECKS * len(workload.deck))
    stream = workload.ops()
    # Other tenants of a shared host can keep one CPU busy for tens of
    # seconds while another stays free. Moving the one thread of load
    # round the CPUs it may use keeps a run from being stuck on the busy
    # one for its whole length.
    cpus = sorted(os.sched_getaffinity(0))
    turn, move_at = 0, time.perf_counter()
    stop_at = move_at + seconds
    while (now := time.perf_counter()) < stop_at or tally.attempted < min_ops:
        if now - started > LOOP_DEADLINE_S:
            print(f"warning: stopped at the deadline after "
                  f"{tally.attempted} operations", file=sys.stderr)
            break
        if now >= move_at:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn, move_at = turn + 1, now + ROTATE_S
        kind, op = next(stream)
        dt, out, err = execute(op)
        busy += dt
        ok = tally.record(op, out, err)
        # a failure consumes nothing and misses any latency limit
        latencies[workload.cost_key(kind)].append(dt if ok else math.inf)
        bits[kind].append(op.bits if ok else 0)
    os.sched_setaffinity(0, cpus)
    # Contention from outside the process slows the host's CPUs by up to
    # 1.7x for spells of a second to a minute, and only ever slows a call
    # down. Every operation of one cost key costs the same otherwise, so
    # its cost is read off the fastest of its latencies, and the figures
    # describe one deck with every slot at its cost.
    fastest = {key: min(lat) for key, lat in latencies.items()}
    slots = sorted(fastest[workload.cost_key(k)] for k in workload.deck)
    deck_bits = sum(statistics.median(bits[k]) for k in workload.deck)
    ok_share = (tally.attempted - tally.failed) / tally.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ok_share * len(slots) / sum(slots),
        "bits_per_s": deck_bits / sum(slots),
        "latency_p50_ms": 1e3 * percentile(slots, 0.50),
        "latency_p90_ms": 1e3 * percentile(slots, 0.90),
        "peak_rss_mb": rss_mb,
    }
    raw = sorted(dt for lat in latencies.values() for dt in lat)
    extra = {"ops_attempted": tally.attempted, "ops_failed": tally.failed,
             "latency_samples": len(raw),
             "fewest_samples_of_a_cost_key": min(map(len,
                                                     latencies.values())),
             "busy_s": busy,
             "raw_ops_per_s": (tally.attempted - tally.failed) / busy,
             "raw_latency_p50_ms": 1e3 * percentile(raw, 0.50),
             "raw_latency_p90_ms": 1e3 * percentile(raw, 0.90)}
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra


def run_pass(workload, count: int, tally: Tally, tracer=None) -> list:
    """Run the first `count` operations of the stream; returns latencies."""
    latencies = []
    stream = workload.ops()
    for op_id in range(count):
        _, op = next(stream)
        dt, out, err = execute(op, tracer, op_id)
        latencies.append(dt)
        tally.record(op, out, err)
    return latencies


def traced_run(workload, env: dict):
    """Per-layer metrics from a fixed number of operations."""
    from tracing import Tracer, per_layer_metrics, traced

    warm_up(workload)
    count = workload.trace_decks * len(workload.deck)
    tally = Tally()
    plain, passes = [], []
    for _ in range(2):
        plain.append(run_pass(workload, count, tally))
        tracer = Tracer()
        with traced(tracer):
            passes.append((tracer, run_pass(workload, count, tally, tracer)))
    # each operation's faster run in either mode, so that a burst of
    # contention during one pass does not count for or against tracing
    overhead = (sum(map(min, *(lat for _, lat in passes)))
                / sum(map(min, *plain)))
    first, second = passes[0][0], passes[1][0]
    repeatable = first.exact_counts() == second.exact_counts()
    if not repeatable:
        print("exact counters differ between two passes over the same "
              f"operations: {first.exact_counts()} vs "
              f"{second.exact_counts()}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    first.write(OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl",
                {**env, "operations": count, "overhead_ratio": overhead})
    extra = {"ops_attempted": tally.attempted, "ops_failed": tally.failed,
             "trace_operations": count}
    return tally, per_layer_metrics(first, overhead), extra, repeatable


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlhl").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    from qlhl import _kernels
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "backend": _kernels.backend(), "has_numba": _kernels.HAS_NUMBA,
        "QLHL_PURE_NUMPY": os.environ.get("QLHL_PURE_NUMPY"),
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }


def _declared_metrics():
    """Metric names and units listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qlhl" / "__init__.py").is_file():
        print(f"error: library sources not found in {SRC / 'qlhl'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        warm_up(workload)
        return 0

    from tracing import Tracer, per_layer_metrics
    e2e_units, layer_units = _declared_metrics()
    produced = {k: u for k, (_, u) in
                per_layer_metrics(Tracer(), 1.0).items()}
    if e2e_units != E2E_UNITS or layer_units != produced:
        print("error: metrics in BENCHMARK.json differ from the ones this "
              "benchmark reports", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.trace)
    if env["QLHL_PURE_NUMPY"] not in (None, "", "0"):
        print("warning: QLHL_PURE_NUMPY is set, so the backend is not the "
              "default selection", file=sys.stderr)
    print("env " + json.dumps(env))
    correct = True
    if args.trace:
        tally, metrics, extra, correct = traced_run(workload, env)
    else:
        tally, metrics, extra = timed_run(workload, args.seconds, started)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for name, value in extra.items():
        print(f"info {name} {value!r}")
    print(json.dumps({
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
