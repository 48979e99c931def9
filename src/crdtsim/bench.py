"""Experiment runner sweeping one parameter and tabulating metrics.

Each sweep point runs the pipeline once on a fresh ledger, pre-populated
with skeleton documents for every key the workload will read. Every metric
is deterministic under fixed seeds: counts, simulated-clock throughput and
latency, and the median over the run's blocks of the bytes each block
merged, read from the block log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .config import SECTIONS, apply_overrides, read_json_object, set_field
from .ledger import BlockLog, Genesis, WorldState, install_genesis
from .txpipeline import CRDT, Block, PipelineConfig, RunReport, run_pipeline
from .workload import WorkloadConfig, gen_stream, iot_chaincode, read_key_universe

# Sweep parameters: (config, fields) for each config field and for each
# composite applying one value to several fields. mode is left out: tables
# are named by the spec's mode, and `bench --mode both` runs each mode.
COMPOSITE_PARAMS = {
    "block_size": ("pipeline", ("max_tx_count",)),
    "rw_keys": ("workload", ("n_read_keys", "n_write_keys")),
    "json_complexity": ("workload", ("json_keys", "json_depth")),
}
SWEEP_PARAMS = {
    **{f.name: ("pipeline", (f.name,)) for f in fields(PipelineConfig) if f.name != "mode"},
    **{f.name: ("workload", (f.name,)) for f in fields(WorkloadConfig)},
    **COMPOSITE_PARAMS,
}

METRIC_COLUMNS = (
    "success_count",
    "failure_count",
    "successful_throughput_tps",
    "avg_success_latency_ms",
    "median_block_merged_bytes",
)
EXPERIMENT_FIELDS = ("name", "sweep_param", "sweep_values", *SECTIONS)


class BenchError(Exception):
    pass


@dataclass
class ExperimentSpec:
    name: str
    pipeline: PipelineConfig
    workload: WorkloadConfig
    sweep_param: str
    sweep_values: list

    def validate(self) -> list:
        """Check the spec and build every sweep point as (value, pipeline,
        workload); the base configs are checked too, even where the sweep
        replaces a field."""
        if not self.sweep_values:
            raise ValueError("field 'sweep_values' must be non-empty")
        self.pipeline.validate()
        self.workload.validate()
        return [(value, *apply_sweep(self.pipeline, self.workload, self.sweep_param, value))
                for value in self.sweep_values]


@dataclass
class PointMetrics:
    sweep_value: object
    success_count: int
    failure_count: int
    successful_throughput_tps: float
    avg_success_latency_ms: float
    median_block_merged_bytes: float


@dataclass
class MetricsReport:
    experiment: str
    mode: str
    sweep_param: str
    rows: list = field(default_factory=list)


def apply_sweep(pipeline: PipelineConfig, workload: WorkloadConfig,
                param: str, value) -> tuple:
    """Fresh config copies with one sweep value applied, both validated.

    A value that does not fit its field or leaves either config invalid
    raises ValueError naming the sweep point.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"field 'sweep_param' names no parameter: {param!r}")
    target, names = SWEEP_PARAMS[param]
    configs = {"pipeline": replace(pipeline), "workload": replace(workload)}
    try:
        for name in names:
            set_field(configs[target], name, value)
        for cfg in configs.values():
            cfg.validate()
    except ValueError as exc:
        raise ValueError(f"'sweep_values' point {param}={value!r}: {exc}") from exc
    return configs["pipeline"], configs["workload"]


# ----------------------------------------------------------------------
# single runs


@dataclass
class RunOutcome:
    report: RunReport
    ws: WorldState
    log: BlockLog


def populate_world_state(ws: WorldState, log: BlockLog, pipeline: PipelineConfig,
                         keys) -> None:
    """Install a genesis writing a skeleton document per key, max_tx_count
    keys per block height, onto an empty log. It stands for the bootstrap
    blocks of one transaction per key: each reads nothing and makes one
    non-CRDT write that every org endorsed, so each is valid in either mode."""
    install_genesis(ws, log, Genesis(tuple(keys), pipeline.max_tx_count))


def run_single(pipeline: PipelineConfig, workload: WorkloadConfig) -> RunOutcome:
    """One full pipeline run on a fresh ledger."""
    ws = WorldState()
    log = BlockLog()
    stream = gen_stream(workload)
    populate_world_state(ws, log, pipeline, read_key_universe(workload, stream))
    report = run_pipeline(pipeline, stream, iot_chaincode(workload), ws=ws, log=log)
    return RunOutcome(report=report, ws=ws, log=log)


# ----------------------------------------------------------------------
# experiments


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Run every sweep value once. Every sweep point is built and checked
    before the first one runs."""
    points = spec.validate()
    report = MetricsReport(experiment=spec.name, mode=spec.pipeline.mode,
                           sweep_param=spec.sweep_param)
    for value, pipeline, workload in points:
        report.rows.append(_run_point(value, pipeline, workload))
    return report


def block_merged_bytes(block: Block) -> int:
    """Bytes of the merged documents a crdt-mode block committed: the length
    of each key's value, over the keys its valid CRDT writes touch. All of a
    key's valid writes in a block share one value, so each counts once."""
    merged = {write.key: len(write.value)
              for tx, verdict in zip(block.transactions, block.validity) if verdict.valid
              for write in tx.rwset.writes if write.is_crdt}
    return sum(merged.values())


def _run_point(value, pipeline: PipelineConfig, workload: WorkloadConfig) -> PointMetrics:
    outcome = run_single(pipeline, workload)
    rep = outcome.report
    total = rep.success_count + rep.failure_count
    if total != workload.total_txs:
        raise BenchError(f"accounting mismatch: {total} classified of {workload.total_txs} generated")
    # Fabric mode merges nothing. The median is statistics.median's arithmetic: importing
    # statistics would load fractions and decimal into every command and benchmark worker.
    merged = sorted(block_merged_bytes(block) for block in outcome.log) if pipeline.mode == CRDT else [0]
    half = len(merged) // 2
    median = merged[half] if len(merged) % 2 else (merged[half - 1] + merged[half]) / 2
    return PointMetrics(
        sweep_value=value,
        success_count=rep.success_count,
        failure_count=rep.failure_count,
        successful_throughput_tps=rep.throughput_tps,
        avg_success_latency_ms=rep.avg_latency_ms,
        median_block_merged_bytes=float(median),
    )


# ----------------------------------------------------------------------
# named experiments and table output


def named_experiments() -> dict:
    """The standard sweep suite at desk scale, each on the WorkloadConfig
    defaults: 1,000 txs per point, seed 42."""
    sweeps = {
        "block_size": ("block_size", [25, 100, 400, 1000]),
        "rw_keys": ("rw_keys", [1, 3, 5]),
        "json_complexity": ("json_complexity", [1, 3, 5]),
        "arrival_rate": ("arrival_rate_tps", [100, 200, 300, 400, 500]),
        "conflict_pct": ("conflict_pct", [0, 20, 40, 60, 80, 100]),
    }
    return {name: ExperimentSpec(name, PipelineConfig(), WorkloadConfig(), param, values)
            for name, (param, values) in sweeps.items()}


def load_experiment_file(path) -> ExperimentSpec:
    """Experiment from a JSON file with pipeline/workload field overrides,
    applied to the PipelineConfig and WorkloadConfig defaults.

    Malformed JSON, an unknown, missing or ill-typed field, a name that is
    no file name (it holds a '/', a NUL or a lone surrogate), an override
    that set_field refuses, or a spec that fails ExperimentSpec.validate (at
    any sweep point) raises ValueError naming the file and the field.
    """
    doc = read_json_object(path)
    try:
        for name in doc:
            if name not in EXPERIMENT_FIELDS:
                raise ValueError(f"unknown field {name!r}; "
                                 f"fields: {', '.join(EXPERIMENT_FIELDS)}")
        for name, kind in (("name", str), ("sweep_param", str), ("sweep_values", list)):
            if not isinstance(doc.get(name), kind):
                raise ValueError(f"field {name!r} is missing or not a {kind.__name__}")
        if "/" in doc["name"] or "\0" in doc["name"]:  # each table's file name starts with it
            raise ValueError(f"field 'name' must not hold a '/' or a NUL, not {doc['name']!r}")
        try:
            doc["name"].encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"field 'name' must be UTF-8 text, not {doc['name']!r}") from None
        spec = ExperimentSpec(name=doc["name"], pipeline=PipelineConfig(),
                              workload=WorkloadConfig(), sweep_param=doc["sweep_param"],
                              sweep_values=doc["sweep_values"])
        apply_overrides(doc, spec.pipeline, spec.workload)
        spec.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return spec


def table_name(experiment: str, mode: str, metric: str) -> str:
    """The file name of an experiment's table of metric in mode."""
    return f"{experiment}_{mode}_{metric}.csv"


def emit_tables(report: MetricsReport, out_dir) -> list:
    """One CSV per metric in the existing directory out_dir: sweep value
    first column, header row, one data row per sweep point. Returns the
    written paths."""
    import csv  # here: the benchmark's workers import this module and write no table

    paths = []
    for metric in METRIC_COLUMNS:
        path = Path(out_dir) / table_name(report.experiment, report.mode, metric)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow((report.sweep_param, metric))
            writer.writerows((row.sweep_value, getattr(row, metric)) for row in report.rows)
        paths.append(path)
    return paths
