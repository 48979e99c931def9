"""Experiment runner sweeping one parameter and tabulating metrics.

Each sweep point runs the pipeline on a fresh ledger, pre-populated with
skeleton documents for every key the workload will read. Counts and
simulated-clock metrics are deterministic under fixed seeds and must agree
across repetitions; per-block merge compute time is the only wall-clock
metric, summarized as a median across the blocks of all repetitions.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .jsoncrdt import canonical_json_bytes
from .ledger import BlockLog, WorldState, commit_block
from .txpipeline import (
    Block,
    PipelineConfig,
    ReadWriteSet,
    RunReport,
    Transaction,
    Write,
    run_pipeline,
    validate_merge_block,
)
from .workload import (
    WorkloadConfig,
    device_skeleton,
    gen_stream,
    iot_chaincode,
    read_key_universe,
)

# Sweep parameters: either a config field or a composite applying one value
# to several fields.
PIPELINE_PARAMS = tuple(f.name for f in fields(PipelineConfig))
WORKLOAD_PARAMS = tuple(f.name for f in fields(WorkloadConfig))
COMPOSITE_PARAMS = {
    "block_size": ("pipeline", ("max_tx_count",)),
    "rw_keys": ("workload", ("n_read_keys", "n_write_keys")),
    "json_complexity": ("workload", ("json_keys", "json_depth")),
}

METRIC_COLUMNS = (
    "success_count",
    "failure_count",
    "successful_throughput_tps",
    "avg_success_latency_ms",
    "median_block_merge_ms",
)


class BenchError(Exception):
    pass


@dataclass
class ExperimentSpec:
    name: str
    pipeline: PipelineConfig
    workload: WorkloadConfig
    sweep_param: str
    sweep_values: list
    repetitions: int = 1

    def validate(self) -> None:
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        apply_sweep(self.pipeline, self.workload, self.sweep_param, self.sweep_values[0])


@dataclass
class PointMetrics:
    sweep_value: object
    total_txs: int
    success_count: int
    failure_count: int
    endorsement_rejections: int
    successful_throughput_tps: float
    avg_success_latency_ms: float
    median_block_merge_ms: float
    error: str = ""


@dataclass
class MetricsReport:
    experiment: str
    mode: str
    sweep_param: str
    rows: list = field(default_factory=list)


def apply_sweep(pipeline: PipelineConfig, workload: WorkloadConfig,
                param: str, value) -> tuple:
    """Fresh config copies with one sweep value applied."""
    pipeline = replace(pipeline)
    workload = replace(workload)
    if param in COMPOSITE_PARAMS:
        target, names = COMPOSITE_PARAMS[param]
        cfg = pipeline if target == "pipeline" else workload
        for name in names:
            setattr(cfg, name, value)
    elif param in PIPELINE_PARAMS:
        setattr(pipeline, param, value)
    elif param in WORKLOAD_PARAMS:
        setattr(workload, param, value)
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return pipeline, workload


# ----------------------------------------------------------------------
# single runs


@dataclass
class RunOutcome:
    report: RunReport
    ws: WorldState
    log: BlockLog


def populate_world_state(ws: WorldState, log: BlockLog, pipeline: PipelineConfig,
                         keys) -> None:
    """Commit bootstrap blocks writing a skeleton document per key."""
    policy = pipeline.policy()
    keys = list(keys)
    for start in range(0, len(keys), pipeline.max_tx_count):
        chunk = keys[start:start + pipeline.max_tx_count]
        txs = tuple(
            Transaction(
                tx_id=f"populate-{start + i:06d}",
                rwset=ReadWriteSet(
                    reads=(),
                    writes=(Write(key, canonical_json_bytes(device_skeleton(key)), False),),
                ),
                endorsements=frozenset(pipeline.orgs),
                submit_time=0.0,
            )
            for i, key in enumerate(chunk)
        )
        block = Block(height=len(log), transactions=txs, cut_reason="count")
        vblock = validate_merge_block(block, ws, pipeline.mode, policy)
        commit_block(ws, log, vblock)


def run_single(pipeline: PipelineConfig, workload: WorkloadConfig,
               *, populate: bool = True) -> RunOutcome:
    """One full pipeline run on a fresh ledger."""
    ws = WorldState()
    log = BlockLog()
    stream = gen_stream(workload)
    if populate:
        populate_world_state(ws, log, pipeline, read_key_universe(workload, stream))
    report = run_pipeline(pipeline, stream, iot_chaincode(workload), ws=ws, log=log)
    return RunOutcome(report=report, ws=ws, log=log)


# ----------------------------------------------------------------------
# experiments


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Run every sweep value x repetition; medians across repetitions.

    Counts must be identical across repetitions (same seeds); a pipeline
    error aborts only its sweep point and is recorded on the row.
    """
    spec.validate()
    report = MetricsReport(experiment=spec.name, mode=spec.pipeline.mode,
                           sweep_param=spec.sweep_param)
    for value in spec.sweep_values:
        pipeline, workload = apply_sweep(spec.pipeline, spec.workload, spec.sweep_param, value)
        try:
            report.rows.append(_run_point(value, pipeline, workload, spec.repetitions))
        except BenchError:
            raise
        except Exception as exc:
            report.rows.append(PointMetrics(
                sweep_value=value, total_txs=workload.total_txs,
                success_count=0, failure_count=0, endorsement_rejections=0,
                successful_throughput_tps=0.0, avg_success_latency_ms=0.0,
                median_block_merge_ms=0.0, error=f"{type(exc).__name__}: {exc}",
            ))
    return report


def _run_point(value, pipeline: PipelineConfig, workload: WorkloadConfig,
               repetitions: int) -> PointMetrics:
    counts = None
    merge_ms: list = []
    throughput = latency = 0.0
    for _ in range(repetitions):
        outcome = run_single(pipeline, workload)
        rep = outcome.report
        rep_counts = (rep.success_count, rep.failure_count, rep.endorsement_rejections)
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise BenchError(f"counts differ across repetitions at sweep value {value!r}")
        total = sum(rep_counts)
        if total != workload.total_txs:
            raise BenchError(
                f"accounting mismatch: {total} classified of {workload.total_txs} generated"
            )
        merge_ms.extend(1000.0 * b.merge_wall_s for b in rep.blocks)
        throughput = rep.throughput_tps
        latency = rep.avg_latency_ms
    return PointMetrics(
        sweep_value=value,
        total_txs=workload.total_txs,
        success_count=counts[0],
        failure_count=counts[1],
        endorsement_rejections=counts[2],
        successful_throughput_tps=throughput,
        avg_success_latency_ms=latency,
        median_block_merge_ms=statistics.median(merge_ms) if merge_ms else 0.0,
    )


# ----------------------------------------------------------------------
# named experiments and table output


def named_experiments(*, scale: float = 1.0, seed: int = 42, mode: str = "crdt") -> dict:
    """The standard sweep suite at desk scale (1,000 txs per point by default)."""
    total = max(1, round(1000 * scale))

    def spec(name, param, values, *, repetitions=1) -> ExperimentSpec:
        return ExperimentSpec(
            name=name,
            pipeline=PipelineConfig(mode=mode),
            workload=WorkloadConfig(total_txs=total, seed=seed),
            sweep_param=param,
            sweep_values=values,
            repetitions=repetitions,
        )

    return {
        "block_size": spec("block_size", "block_size", [25, 100, 400, 1000]),
        "rw_keys": spec("rw_keys", "rw_keys", [1, 3, 5]),
        "json_complexity": spec("json_complexity", "json_complexity", [1, 3, 5], repetitions=5),
        "arrival_rate": spec("arrival_rate", "arrival_rate_tps", [100, 200, 300, 400, 500]),
        "conflict_pct": spec("conflict_pct", "conflict_pct", [0, 20, 40, 60, 80, 100]),
    }


def _fits(value, default) -> bool:
    """Whether value may set a field whose default is default: its type, an
    int for a float, or a list for a tuple, but never a bool for a number."""
    kind = type(default)
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind is tuple:
        return isinstance(value, (list, tuple))
    return isinstance(value, kind)


def load_experiment_file(path) -> ExperimentSpec:
    """Experiment from a JSON file with pipeline/workload field overrides.

    Malformed JSON, a missing or ill-typed field, an unknown override or
    sweep parameter, an override or sweep value that does not fit its
    field's type, or a bad repetitions count raises ValueError naming the
    file and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object, not {type(doc).__name__}")
    for name, kind in (("name", str), ("sweep_param", str), ("sweep_values", list)):
        if not isinstance(doc.get(name), kind):
            raise ValueError(f"{path}: field {name!r} is missing or not a {kind.__name__}")
    pipeline, workload = PipelineConfig(), WorkloadConfig()
    for section, cfg, names in (("pipeline", pipeline, PIPELINE_PARAMS),
                                ("workload", workload, WORKLOAD_PARAMS)):
        overrides = doc.get(section, {})
        if not isinstance(overrides, dict):
            raise ValueError(f"{path}: field {section!r} is not an object")
        for name, value in overrides.items():
            if name not in names:
                raise ValueError(f"{path}: unknown {section} field {name!r}")
            default = getattr(cfg, name)
            if not _fits(value, default):
                raise ValueError(f"{path}: {section} field {name!r} must be a "
                                 f"{type(default).__name__}, not {value!r}")
            setattr(cfg, name, value)
    param = doc["sweep_param"]
    swept = COMPOSITE_PARAMS[param][1][0] if param in COMPOSITE_PARAMS else param
    if swept not in PIPELINE_PARAMS + WORKLOAD_PARAMS:
        raise ValueError(f"{path}: field 'sweep_param' names no parameter: {param!r}")
    default = getattr(PipelineConfig() if swept in PIPELINE_PARAMS else WorkloadConfig(), swept)
    for value in doc["sweep_values"]:
        if not _fits(value, default):
            raise ValueError(f"{path}: field 'sweep_values' holds {value!r}, not a "
                             f"{type(default).__name__} for {param!r}")
    repetitions = doc.get("repetitions", 1)
    if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
        raise ValueError(f"{path}: field 'repetitions' must be a positive integer, "
                         f"not {repetitions!r}")
    return ExperimentSpec(
        name=doc["name"],
        pipeline=pipeline,
        workload=workload,
        sweep_param=param,
        sweep_values=doc["sweep_values"],
        repetitions=repetitions,
    )


def emit_tables(report: MetricsReport, out_dir) -> list:
    """One CSV per metric: sweep value first column, header row, one data row
    per sweep point. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for metric in METRIC_COLUMNS:
        path = out / f"{report.experiment}_{report.mode}_{metric}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{report.sweep_param},{metric}\n")
            for row in report.rows:
                if row.error:
                    continue
                fh.write(f"{row.sweep_value},{getattr(row, metric)!r}\n")
        paths.append(path)
    errors = [row for row in report.rows if row.error]
    if errors:
        path = out / f"{report.experiment}_{report.mode}_errors.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{report.sweep_param},error\n")
            for row in errors:
                fh.write(f"{row.sweep_value},{row.error}\n")
        paths.append(path)
    return paths
