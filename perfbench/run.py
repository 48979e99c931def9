"""crdtsim benchmark: run, replay and set-up speed, with traced per-layer timings.

Each repetition runs one workload in a fresh worker process (perfbench/worker.py),
one process at a time: generate the seeded stream, bootstrap the read keys,
run the pipeline, digest, then save, load and replay the block log. Repetitions
continue until --seconds have passed (at least ten, or three traced ones with
--trace 1). A timing is the 90th percentile of the repetitions' times (a
throughput divides the proposals by it); every other metric is the median
over the repetitions.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of the traced
ones, the tracing overhead, and the readings oracle. Metric names and units come
from BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Correctness gates (any failure makes "correct" false and the exit status 1):
the replayed digest equals the live digest; every proposal gets exactly one
verdict; summary counts, simulated throughput and latency, and the digest are
identical across all repetitions of a workload and seed, traced or not.

Usage:
    python3 perfbench/run.py --workload crdt-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload, both modes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# Fewest untraced repetitions behind a 90th percentile, and fewest traced
# ones behind a per-layer median.
MIN_REPS = 10
MIN_TRACED_REPS = 3
# Stop starting repetitions once this much of the run has gone, so a run
# always ends well inside the three minutes a run may take.
BUDGET_S = 150.0


class BenchmarkError(Exception):
    pass


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so the worker's reading of it at the
    # first proposal can be subtracted from the parent's reading at spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, *, trace: bool, oracle: bool, txs: int,
          deadline: float) -> dict:
    """One repetition in its own process; set-up time counts from the spawn."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--oracle", str(int(oracle)), "--txs", str(txs)]
    spawned = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_proposal"] - spawned
    return result


def repetitions(workload: str, seed: int, seconds: float, trace: bool, txs: int) -> list:
    """Run repetitions until `seconds` have passed; with trace, untraced and
    traced alternate and the first untraced one also runs the oracle."""
    started = perf_counter()
    deadline = started + BUDGET_S + 20.0
    reps: list = []
    while True:
        rep_started = perf_counter()
        if trace:
            reps.append(spawn(workload, seed, trace=False, oracle=not reps, txs=txs,
                              deadline=deadline))
        reps.append(spawn(workload, seed, trace=trace, oracle=False, txs=txs, deadline=deadline))
        now = perf_counter()
        if trace:
            enough = sum(1 for r in reps if "layers" in r) >= MIN_TRACED_REPS
        else:
            enough = len(reps) >= MIN_REPS
        if enough and now - started >= seconds:
            return reps
        if now - started + (now - rep_started) > BUDGET_S:
            return reps


def p90(values: list) -> float:
    """90th percentile. On a shared host a repetition runs in a fast or a slow
    spell of the machine, and the share of each drifts from one run to the
    next; the slow spells are alike, so this tail is steadier than the median."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(reps: list) -> dict:
    proposals = reps[0]["proposals"]
    return {
        "run_tx_per_s": proposals / p90([r["run_s"] for r in reps]),
        "replay_tx_per_s": proposals / p90([r["replay_s"] for r in reps]),
        "setup_s": p90([r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if "layers" not in r]
    metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in plain))
    checked = next(r for r in plain if "lost_reading_ratio" in r)
    metrics["lost_reading_ratio"] = checked["lost_reading_ratio"]
    metrics["extra_reading_ratio"] = checked["extra_reading_ratio"]
    return metrics


def gate_errors(reps: list) -> list:
    errors = [e for r in reps for e in r["errors"]]
    outcomes = {json.dumps([r["summary"], r["digest"]], sort_keys=True) for r in reps}
    if len(outcomes) > 1:
        errors.append(f"{len(outcomes)} different summaries or digests across "
                      f"{len(reps)} repetitions: {sorted(outcomes)}")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict,
            txs: int = 0) -> dict:
    """Run one workload; return the result object the last output line carries."""
    reps = repetitions(workload, seed, seconds, trace, txs)
    metrics = per_layer(reps) if trace else end_to_end(reps)
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} are not in "
                             "BENCHMARK.json, or are listed there but not measured")
    errors = gate_errors(reps)
    for error in errors:
        print(f"GATE FAILED [{workload}]: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r["proposals"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--txs", type=int, default=0,
                        help="override every workload's proposal count (quick checks only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crdtsim" / "__init__.py").is_file():
        print(f"error: no crdtsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sections = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    for name, trace in runs:
        try:
            result = measure(name, args.seed, args.seconds, bool(trace), sections[trace], args.txs)
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[name, trace] = result
        print(f"host {json.dumps(host_facts())}")
        for metric, reading in result["metrics"].items():
            print(f"{name:<13} {metric:<34} {reading['value']:>16.6g} {reading['unit']}")

    if len(results) == 1:
        final = results[runs[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": reading for (name, _), r in results.items()
                        for metric, reading in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
