"""Determinism and replay check over a grid of modes and conflict shares.

For each combination the pipeline runs twice from scratch, both block logs
are saved and must be byte-identical, and the block log of the first run is
loaded, saved again, which must give the same bytes, and replayed into a
fresh state; all three world-state digests must agree, and each must equal
hashlib's (OpenSSL's) sha256 of the state's canonical bytes, as the digest
uses the interpreter's own SHA-256. Exits non-zero on the first mismatch.

Usage:
    python3 scripts/determinism_check.py --txs 200 --seeds 0 1 2
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from crdtsim.bench import run_single
from crdtsim.txpipeline import PipelineConfig, load_block_log, replay_block_log, save_block_log
from crdtsim.workload import WorkloadConfig


def check(mode: str, conflict_pct: float, txs: int, seed: int, scratch: Path) -> bool:
    pipeline = PipelineConfig(mode=mode)
    workload = WorkloadConfig(total_txs=txs, conflict_pct=conflict_pct, seed=seed)
    first = run_single(pipeline, workload)
    second = run_single(pipeline, workload)
    path = scratch / f"{mode}-{conflict_pct}-{seed}.blocklog"
    second_path = scratch / f"{mode}-{conflict_pct}-{seed}-second.blocklog"
    resaved_path = scratch / f"{mode}-{conflict_pct}-{seed}-resaved.blocklog"
    save_block_log(first.log, path)
    save_block_log(second.log, second_path)
    loaded = load_block_log(path)
    save_block_log(loaded, resaved_path)
    replayed, _ = replay_block_log(loaded)
    states = (first.ws, second.ws, replayed)
    digests = [ws.digest() for ws in states]
    openssl = [hashlib.sha256(ws.canonical_bytes()).hexdigest() for ws in states]
    saved = path.read_bytes()
    ok = (len(set(digests)) == 1 and digests == openssl
          and saved == second_path.read_bytes() == resaved_path.read_bytes())
    label = "ok" if ok else "MISMATCH"
    print(f"{label}  mode={mode} conflict={conflict_pct:5.1f} seed={seed} "
          f"success={first.report.success_count} digest={first.ws.digest()[:12]}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--txs", type=int, default=200)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--conflicts", type=float, nargs="+",
                        default=[0.0, 25.0, 50.0, 75.0, 100.0])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for mode in ("crdt", "fabric"):
            for conflict in args.conflicts:
                for seed in args.seeds:
                    if not check(mode, conflict, args.txs, seed, scratch):
                        return 1
    print("all digests agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
