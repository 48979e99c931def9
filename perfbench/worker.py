"""One benchmark repetition, in a process of its own.

Runs one workload exactly as ``crdtsim run --save-blocklog`` followed by
``crdtsim replay`` would: generate the seeded stream, bootstrap the read keys,
drive the pipeline, digest, then save, load and replay the block log and
digest the replayed state. Prints one JSON object with the clock readings,
the results the correctness gates compare, and, when asked, per-layer
metrics from spans (--trace 1) or the readings oracle (--oracle 1).

Usage:
    python3 perfbench/worker.py --workload crdt-hot --seed 1 --trace 0 --oracle 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from crdtsim.bench import populate_world_state  # noqa: E402
from crdtsim.ledger import BlockLog, WorldState  # noqa: E402
from crdtsim.txpipeline import (  # noqa: E402
    INVALID_REASONS,
    VALID,
    PipelineConfig,
    load_block_log,
    replay_block_log,
    run_pipeline,
    save_block_log,
)
from crdtsim.workload import WorkloadConfig, gen_stream, iot_chaincode, read_key_universe  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench-work"


def configs(name: str, seed: int, txs: int = 0) -> tuple:
    """The workload's PipelineConfig and WorkloadConfig; txs > 0 overrides its size."""
    pipeline, workload = WORKLOADS[name]
    fields = dict(workload, seed=seed)
    if txs > 0:
        fields["total_txs"] = txs
    return PipelineConfig(**pipeline), WorkloadConfig(**fields)


def verdict_failures(stream: list, report, log: BlockLog, first_height: int) -> int:
    """Proposals that did not get exactly one block verdict."""
    in_blocks = Counter()
    for block in list(log)[first_height:]:
        if len(block.validity) != len(block.transactions):
            raise RuntimeError(f"block {block.height} has {len(block.validity)} verdicts "
                               f"for {len(block.transactions)} transactions")
        in_blocks.update(tx.tx_id for tx in block.transactions)
    failed = abs(len(stream) - len(report.txs))
    for record in report.txs:
        ok = record.validity in (VALID,) + INVALID_REASONS and record.block_height is not None
        if not ok or in_blocks.pop(record.tx_id, 0) != 1:
            failed += 1
    return failed + sum(in_blocks.values())


def run_once(name: str, seed: int, *, trace: bool, check_readings: bool, txs: int = 0,
             work_dir: Path = WORK_DIR) -> dict:
    pipeline, workload = configs(name, seed, txs)
    tracer = tracing.Tracer() if trace else None

    def api(fn_name, fn):
        return tracer.wrap(fn_name, fn) if trace else fn

    work_dir.mkdir(parents=True, exist_ok=True)
    log_path = work_dir / f"{name}-{os.getpid()}.blocklog"
    chaincode = iot_chaincode(workload)
    with tracing.program_spans(tracer) if trace else nullcontext():
        begin = perf_counter()
        stream = api("gen_stream", gen_stream)(workload)
        ws, log = WorldState(), BlockLog()
        api("populate_world_state", populate_world_state)(
            ws, log, pipeline, read_key_universe(workload, stream))
        first_height = len(log)
        if trace:
            ordered = sorted(stream, key=lambda p: p.submit_time)
            tx_ids = {id(p.args): f"{p.client_id}-{i:06d}" for i, p in enumerate(ordered)}
            chaincode = tracing.traced_chaincode(tracer, chaincode, tx_ids)
            tracer.phase = "run"
        first_proposal = time.clock_gettime(time.CLOCK_MONOTONIC)
        run_start = perf_counter()
        report = run_pipeline(pipeline, stream, chaincode, ws=ws, log=log)
        digest = ws.digest()
        run_end = perf_counter()
        if trace:
            tracer.phase = "replay"
        replay_start = perf_counter()
        api("save_block_log", save_block_log)(log, log_path)
        blocks = api("load_block_log", load_block_log)(log_path)
        replayed, _ = api("replay_block_log", replay_block_log)(blocks)
        replay_digest = replayed.digest()
        replay_end = perf_counter()
        del blocks, replayed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log_bytes = log_path.stat().st_size
    log_path.unlink()

    errors = []
    if replay_digest != digest:
        errors.append(f"replayed digest {replay_digest} differs from live digest {digest}")
    failed = verdict_failures(stream, report, log, first_height)
    if failed:
        errors.append(f"{failed} proposals did not get exactly one verdict")
    result = {
        "workload": name,
        "seed": seed,
        "proposals": len(stream),
        "failed": failed,
        "errors": errors,
        "first_proposal": first_proposal,
        "run_s": run_end - run_start,
        "replay_s": replay_end - replay_start,
        "wall_s": replay_end - begin,
        "peak_rss_mb": peak_rss_mb,
        "summary": report.summary(),
        "digest": digest,
    }
    if trace:
        layers = tracing.span_metrics(tracer, result["wall_s"])
        layers.update({
            "bench.populate_keys": sum(len(b.transactions) for b in list(log)[:first_height]),
            "ledger.keys": len(ws.keys()),
            "ledger.state_bytes": sum(len(ws.get_state(k)[0]) for k in ws.keys()),
            "ledger.log_bytes": log_bytes,
        })
        result["layers"] = layers
        tracer.write(work_dir / f"trace-{name}.jsonl")
    if check_readings:
        ordered = sorted(stream, key=lambda p: p.submit_time)
        readings = oracle.check_readings(ordered, report.txs, workload.n_write_keys, ws)
        result["lost_reading_ratio"] = readings.lost_ratio
        result["extra_reading_ratio"] = readings.extra_ratio
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--txs", type=int, default=0, help="override the workload's size")
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, trace=bool(args.trace),
                      check_readings=bool(args.oracle), txs=args.txs)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
