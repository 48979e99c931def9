"""Command-line front door: run, bench, replay, merge-demo.

All output is machine parseable. Runs print the transaction report in CSV or
JSON-lines form followed by a final world-state digest line; replay prints
the digest of the reconstructed state, which must match the live run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .bench import (METRIC_COLUMNS, emit_tables, load_experiment_file, named_experiments,
                    run_experiment, run_single, table_name)
from .config import load_config
from .jsoncrdt import CrdtError, JsonCrdt, canonical_json_bytes, parse_json_bytes
from .txpipeline import PipelineConfig, load_block_log, replay_block_log, save_block_log
from .workload import WorkloadConfig

def _print_digest(digest: str, fmt: str, fh) -> None:
    if fmt == "json-lines":
        fh.write(json.dumps({"digest": digest}) + "\n")
    else:
        fh.write(f"digest,{digest}\n")


# ----------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> int:
    """Precedence: flag, then config file, then default. Sources apply from
    lowest to highest, each overriding the ones before it."""
    pipeline, workload = PipelineConfig(), WorkloadConfig()
    if args.config:
        load_config(args.config, pipeline, workload)
    flags = vars(args)
    for cfg in (pipeline, workload):
        for f in fields(cfg):
            if flags.get(f.name) is not None:
                setattr(cfg, f.name, flags[f.name])
    pipeline.validate()
    workload.validate()

    outcome = run_single(pipeline, workload)
    report = outcome.report
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_report(report, args.format, fh)
    else:
        _write_report(report, args.format, sys.stdout)
    if args.save_blocklog:
        save_block_log(outcome.log, args.save_blocklog)
    _print_digest(outcome.ws.digest(), args.format, sys.stdout)
    return 0


def _write_report(report, fmt: str, fh) -> None:
    if fmt == "json-lines":
        report.write_json_lines(fh)
    else:
        report.write_csv(fh)


def _cmd_bench(args) -> int:
    """Seed precedence as for run: flag, then spec file, then default; a
    seed sweep sets each point's seed, so it cannot take --seed."""
    modes = ["crdt", "fabric"] if args.mode == "both" else [args.mode]
    named = named_experiments()
    # Resolve and check every experiment once, before running any. A name
    # repeated in the first mode is repeated in every mode.
    specs, tables = [], set()
    for experiment in args.experiment:
        if experiment in named:
            spec = named[experiment]
        elif Path(experiment).is_file():
            spec = load_experiment_file(experiment)
        else:
            names = ", ".join(sorted(named))
            raise ValueError(f"unknown experiment {experiment!r}; names: {names}")
        key = (spec.name, modes[0] or spec.pipeline.mode)  # flag, then file, then crdt
        if key in tables:
            raise ValueError(f"experiment name {spec.name!r} is given twice in mode "
                             f"{key[1]}: both would write {spec.name}_{key[1]}_*.csv")
        tables.add(key)
        if args.seed is not None:
            if spec.sweep_param == "seed":
                raise ValueError(f"--seed {args.seed} conflicts with experiment {experiment!r}, "
                                 f"which sweeps seed")
            spec.workload.seed = args.seed
        swept = spec.sweep_values if spec.sweep_param == "total_txs" else []
        scaled = [count * args.scale for count in (spec.workload.total_txs, *swept)]
        if not all(map(math.isfinite, scaled)):
            raise ValueError(f"--scale {args.scale!r} gives experiment {experiment!r} "
                             f"an infinite transaction count")
        spec.workload.total_txs, *counts = [max(1, round(count)) for count in scaled]
        if swept:
            spec.sweep_values = counts
        spec.validate()
        specs.append(spec)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    name_max = os.pathconf(args.out, "PC_NAME_MAX")
    for experiment, spec in zip(args.experiment, specs):
        longest = max(len(table_name(spec.name, mode or spec.pipeline.mode, metric).encode("utf-8"))
                      for mode in modes for metric in METRIC_COLUMNS)
        if longest > name_max:
            raise ValueError(f"{experiment}: field 'name' makes a table file name of {longest} "
                             f"bytes; {args.out} takes at most {name_max}")
    written = []
    for mode in modes:
        for spec in specs:
            spec = replace(spec, pipeline=replace(spec.pipeline, mode=mode or spec.pipeline.mode))
            written.extend(emit_tables(run_experiment(spec), args.out))
    for path in written:
        print(path)
    return 0


def _cmd_replay(args) -> int:
    blocks = load_block_log(args.blocklog)
    ws, _ = replay_block_log(blocks)
    _print_digest(ws.digest(), args.format, sys.stdout)
    return 0


def _cmd_merge_demo(args) -> int:
    crdt = JsonCrdt("demo")  # the key changes no output
    for path in args.files:
        try:
            crdt.merge_json(parse_json_bytes(Path(path).read_bytes()))
        except (CrdtError, RecursionError) as exc:  # RecursionError: a too deeply nested file
            raise CrdtError(f"{path}: {exc}") from exc
    sys.stdout.write(canonical_json_bytes(crdt.to_json()).decode("utf-8") + "\n")
    return 0


# ----------------------------------------------------------------------
# parser


def _positive_scale(text: str) -> float:
    """argparse type for --scale: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crdtsim",
        description="Execute-order-validate pipeline simulator with MVCC and CRDT-merge validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one pipeline over a generated workload")
    # Each config flag's dest is its field name; _cmd_run applies those set.
    run.add_argument("--config",
                     help='JSON file of {"pipeline": {...}, "workload": {...}} field overrides')
    run.add_argument("--mode", choices=["fabric", "crdt"])
    run.add_argument("--txs", type=int, dest="total_txs", metavar="TXS", help="total transactions")
    run.add_argument("--conflict-pct", type=float, dest="conflict_pct")
    run.add_argument("--arrival-rate", type=float, dest="arrival_rate_tps", metavar="ARRIVAL_RATE")
    run.add_argument("--block-size", type=int, dest="max_tx_count", metavar="BLOCK_SIZE",
                     help="max transactions per block")
    run.add_argument("--block-timeout-ms", type=float, dest="block_timeout_ms")
    run.add_argument("--snapshot-policy", choices=["batch", "fresh"], dest="snapshot_policy",
                     help="batch (default): every proposal simulates on one snapshot taken before "
                          "the first, an endorsement lag longer than the run; fresh: each "
                          "simulates on the latest committed state")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--save-blocklog", dest="save_blocklog", help="write the block log to this file")
    run.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser("bench", help="run named or file-defined experiment sweeps")
    bench.add_argument("--experiment", required=True, nargs="+",
                       help="experiment names or JSON spec files, run in order")
    bench.add_argument("--scale", type=_positive_scale, default=1.0,
                       help="multiply transaction counts (a positive finite number)")
    bench.add_argument("--out", default="bench_out", help="directory for metric tables")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--mode", choices=["fabric", "crdt", "both"],
                       help="default: a spec file's own mode, crdt for a named experiment")
    bench.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("replay", help="rebuild world state from a block log file")
    rep.add_argument("blocklog")
    rep.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    rep.set_defaults(func=_cmd_replay)

    demo = sub.add_parser("merge-demo", help="merge JSON documents into one CRDT and print the result")
    demo.add_argument("files", nargs="+", help="JSON document files, merged in order")
    demo.set_defaults(func=_cmd_merge_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
