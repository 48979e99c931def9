import csv
import json

import pytest

from crdtsim import bench
from crdtsim.bench import (
    COMPOSITE_PARAMS,
    METRIC_COLUMNS,
    ExperimentSpec,
    MetricsReport,
    PointMetrics,
    apply_sweep,
    block_merged_bytes,
    emit_tables,
    load_experiment_file,
    named_experiments,
    populate_world_state,
    run_experiment,
    run_single,
)
from crdtsim.jsoncrdt import canonical_json_bytes
from crdtsim.ledger import BlockLog, Genesis, LedgerError, Version, WorldState, commit_block
from crdtsim.txpipeline import (CRDT, ENDORSERS, FABRIC, INVALID_MVCC, VALID, Block, PipelineConfig,
                                ReadWriteSet, Transaction, TxVerdict, Write, validate_merge_block)
from crdtsim.workload import WorkloadConfig


def small_workload(**overrides):
    fields = dict(total_txs=40, arrival_rate_tps=300.0, conflict_pct=100.0, seed=11)
    fields.update(overrides)
    return WorkloadConfig(**fields)


# ----------------------------------------------------------------------
# sweep application


def test_apply_sweep_pipeline_field():
    pipeline, workload = apply_sweep(PipelineConfig(), WorkloadConfig(), "max_tx_count", 7)
    assert pipeline.max_tx_count == 7
    assert workload == WorkloadConfig()


def test_apply_sweep_workload_field():
    pipeline, workload = apply_sweep(PipelineConfig(), WorkloadConfig(), "conflict_pct", 25.0)
    assert workload.conflict_pct == 25.0
    assert pipeline == PipelineConfig()


def test_apply_sweep_leaves_inputs_untouched():
    base_p = PipelineConfig()
    base_w = WorkloadConfig()
    apply_sweep(base_p, base_w, "max_tx_count", 999)
    assert base_p.max_tx_count == PipelineConfig().max_tx_count


def test_apply_sweep_composites_fan_out():
    pipeline, workload = apply_sweep(PipelineConfig(), WorkloadConfig(), "rw_keys", 3)
    assert workload.n_read_keys == 3 and workload.n_write_keys == 3
    pipeline, workload = apply_sweep(PipelineConfig(), WorkloadConfig(), "json_complexity", 5)
    assert workload.json_keys == 5 and workload.json_depth == 5
    pipeline, workload = apply_sweep(PipelineConfig(), WorkloadConfig(), "block_size", 400)
    assert pipeline.max_tx_count == 400
    assert set(COMPOSITE_PARAMS) == {"block_size", "rw_keys", "json_complexity"}


def test_apply_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        apply_sweep(PipelineConfig(), WorkloadConfig(), "warp_speed", 9)


# ----------------------------------------------------------------------
# populate and single runs


def test_populate_writes_skeletons_without_consuming_heights_twice():
    ws = WorldState()
    log = BlockLog()
    pipeline = PipelineConfig(max_tx_count=3)
    keys = [f"k{i}" for i in range(7)]
    populate_world_state(ws, log, pipeline, keys)
    assert log.genesis == Genesis(tuple(keys), 3)
    assert len(log) == 0
    assert log.next_height == 3  # ceil(7 / 3) bootstrap heights
    entry = ws.get_state("k0")
    assert entry is not None
    assert json.loads(entry[0]) == {"deviceID": "k0"}
    assert entry[1] == Version(0, 0)


@pytest.mark.parametrize("mode", [CRDT, FABRIC])
def test_populate_installs_what_one_bootstrap_transaction_per_key_commits(mode):
    # The bootstrap as blocks of one transaction per key: no reads, one
    # non-CRDT skeleton write, endorsed by every org.
    pipeline = PipelineConfig(mode=mode, max_tx_count=3)
    keys = [f"k{i}" for i in range(7)]
    ws, log = WorldState(), BlockLog()
    for start in range(0, len(keys), 3):
        txs = tuple(Transaction(f"populate-{start + i:06d}",
                                ReadWriteSet(writes=(Write(key, canonical_json_bytes(
                                    {"deviceID": key})),)),
                                ENDORSERS, 0.0)
                    for i, key in enumerate(keys[start:start + 3]))
        block = validate_merge_block(Block(len(log), txs, "count"), ws, mode, ENDORSERS)
        assert all(v.valid for v in block.validity)
        commit_block(ws, log, block)
    genesis_ws, genesis_log = WorldState(), BlockLog()
    populate_world_state(genesis_ws, genesis_log, pipeline, keys)
    assert genesis_ws.canonical_bytes() == ws.canonical_bytes()
    assert genesis_log.next_height == len(log)


def test_populate_refuses_a_log_that_is_not_empty():
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, PipelineConfig(), ["k0"])
    with pytest.raises(LedgerError, match="empty block log"):
        populate_world_state(ws, log, PipelineConfig(), ["k1"])
    log = BlockLog([Block(0, (), "count", ())])
    with pytest.raises(LedgerError, match="empty block log"):
        populate_world_state(WorldState(), log, PipelineConfig(), ["k1"])


def test_populate_handles_empty_key_set():
    ws = WorldState()
    log = BlockLog()
    populate_world_state(ws, log, PipelineConfig(), [])
    assert len(log) == 0


def test_run_single_crdt_accepts_all_conflicting_writers():
    outcome = run_single(PipelineConfig(mode=CRDT), small_workload())
    assert outcome.report.success_count == 40
    assert outcome.report.failure_count == 0


def test_run_single_fabric_admits_one_conflicting_writer():
    outcome = run_single(PipelineConfig(mode=FABRIC), small_workload())
    assert outcome.report.success_count == 1
    assert outcome.report.failure_count == 39


def test_run_single_classifies_trailing_partial_block():
    # 12 txs in blocks of 5 leave a 2-tx tail whose timeout deadline lands on
    # a fractional instant; the final drain must still classify it
    outcome = run_single(PipelineConfig(mode=CRDT, max_tx_count=5),
                         small_workload(total_txs=12, conflict_pct=0.0, seed=3))
    rep = outcome.report
    assert rep.success_count + rep.failure_count == 12
    assert outcome.log[-1].cut_reason == "timeout"


def test_run_single_is_reproducible():
    first = run_single(PipelineConfig(mode=CRDT), small_workload())
    second = run_single(PipelineConfig(mode=CRDT), small_workload())
    assert first.ws.digest() == second.ws.digest()
    assert first.report.summary() == second.report.summary()


# ----------------------------------------------------------------------
# experiments


def test_run_experiment_sweeps_and_accounts():
    spec = ExperimentSpec(
        name="conflict", pipeline=PipelineConfig(mode=FABRIC),
        workload=small_workload(), sweep_param="conflict_pct",
        sweep_values=[0.0, 50.0, 100.0],
    )
    report = run_experiment(spec)
    assert report.mode == FABRIC
    assert [row.sweep_value for row in report.rows] == [0.0, 50.0, 100.0]
    failures = [row.failure_count for row in report.rows]
    assert failures[0] == 0
    assert failures == sorted(failures)
    for row in report.rows:
        assert row.success_count + row.failure_count == 40


@pytest.fixture
def runs(monkeypatch):
    """The sweep points run_experiment runs, with run_single stubbed out."""
    calls = []
    monkeypatch.setattr(bench, "run_single", lambda pipeline, workload: calls.append(workload))
    return calls


def test_run_experiment_checks_every_point_before_running_any(runs):
    spec = ExperimentSpec(
        name="rate", pipeline=PipelineConfig(),
        workload=small_workload(), sweep_param="arrival_rate_tps",
        sweep_values=[100.0, -1.0, 300.0],
    )
    with pytest.raises(ValueError, match=r"point arrival_rate_tps=-1\.0: arrival_rate_tps must"):
        run_experiment(spec)
    assert runs == []


def test_run_experiment_rejects_a_bad_last_point_before_running_any(runs):
    spec = ExperimentSpec(
        name="blocks", pipeline=PipelineConfig(),
        workload=small_workload(), sweep_param="block_size", sweep_values=[5, 0],
    )
    with pytest.raises(ValueError, match="point block_size=0: max_tx_count must be positive, not 0"):
        run_experiment(spec)
    assert runs == []


def test_run_experiment_rejects_empty_sweep():
    spec = ExperimentSpec(
        name="x", pipeline=PipelineConfig(), workload=small_workload(),
        sweep_param="conflict_pct", sweep_values=[],
    )
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_run_experiment_rejects_unknown_parameter_upfront():
    spec = ExperimentSpec(
        name="x", pipeline=PipelineConfig(), workload=small_workload(),
        sweep_param="bogus", sweep_values=[1],
    )
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_block_merged_bytes_counts_each_key_of_valid_crdt_writes_once():
    def tx(tx_id, *writes):
        return Transaction(tx_id, ReadWriteSet(writes=writes), frozenset({"org1"}), 0.0)

    merged = Write("hot", b"12345", True)
    block = Block(0, (
        tx("a", merged, Write("plain", b"123", False)),
        tx("b", merged),
        tx("c", Write("cold", b"1234567", True)),
    ), "count", (TxVerdict(True, VALID), TxVerdict(True, VALID),
                 TxVerdict(False, INVALID_MVCC)))
    assert block_merged_bytes(block) == 5


def test_median_block_merged_bytes_is_exact_for_crdt_merges():
    # 40 hot-key writes in blocks of 25 and 15: the median of the two blocks'
    # merged document lengths.
    def row(mode):
        return run_experiment(ExperimentSpec(
            name="merge", pipeline=PipelineConfig(mode=mode), workload=small_workload(),
            sweep_param="conflict_pct", sweep_values=[100.0],
        )).rows[0]

    assert row(CRDT).median_block_merged_bytes == 561.5
    assert row(FABRIC).median_block_merged_bytes == 0.0


# ----------------------------------------------------------------------
# named experiments and files


def test_named_experiments_cover_the_standard_sweeps():
    experiments = named_experiments()
    assert set(experiments) == {
        "block_size", "rw_keys", "json_complexity", "arrival_rate", "conflict_pct"}
    for spec in experiments.values():
        assert spec.workload.total_txs == 1000
        assert spec.workload.seed == 42
        assert spec.pipeline.mode == CRDT
        assert len(spec.validate()) == len(spec.sweep_values)
    assert experiments["json_complexity"].sweep_values == [1, 3, 5]
    assert experiments["conflict_pct"].sweep_values == [0, 20, 40, 60, 80, 100]
    assert experiments["block_size"].sweep_values == [25, 100, 400, 1000]
    assert named_experiments()["block_size"] is not experiments["block_size"]


def test_load_experiment_file_applies_overrides(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "custom",
        "pipeline": {"mode": "fabric", "max_tx_count": 10},
        "workload": {"total_txs": 20, "conflict_pct": 0},
        "sweep_param": "arrival_rate_tps",
        "sweep_values": [100, 200.5],
    }))
    spec = load_experiment_file(path)
    assert spec.name == "custom"
    assert spec.pipeline.mode == "fabric"
    assert spec.pipeline.max_tx_count == 10
    assert spec.workload.total_txs == 20
    assert spec.workload.conflict_pct == 0  # an int may set a float field
    assert spec.sweep_values == [100, 200.5]


def test_load_experiment_file_rejects_unknown_fields(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "name": "bad", "pipeline": {"warp": 1},
        "sweep_param": "conflict_pct", "sweep_values": [0],
    }))
    with pytest.raises(ValueError):
        load_experiment_file(path)


VALID_EXPERIMENT = {"name": "x", "sweep_param": "conflict_pct", "sweep_values": [0]}


@pytest.mark.parametrize("doc, field", [
    ([VALID_EXPERIMENT], "top level"),
    ({"sweep_param": "conflict_pct", "sweep_values": [0]}, "'name'"),
    ({**VALID_EXPERIMENT, "name": 7}, "'name'"),
    ({"name": "x", "sweep_values": [0]}, "'sweep_param'"),
    ({**VALID_EXPERIMENT, "sweep_param": ["conflict_pct"]}, "'sweep_param'"),
    ({"name": "x", "sweep_param": "conflict_pct"}, "'sweep_values'"),
    ({**VALID_EXPERIMENT, "sweep_values": 0}, "'sweep_values'"),
    ({**VALID_EXPERIMENT, "pipeline": {"policy": 3}}, "'policy'"),
    ({**VALID_EXPERIMENT, "workload": {"validate": 1}}, "'validate'"),
    ({**VALID_EXPERIMENT, "pipeline": ["mode"]}, "'pipeline'"),
    ({**VALID_EXPERIMENT, "repetitions": "3"}, "'repetitions'"),
    ({**VALID_EXPERIMENT, "repetitions": 0}, "'repetitions'"),
    ({**VALID_EXPERIMENT, "repetitions": True}, "'repetitions'"),
    pytest.param(b'{"name": "x",\n', "Expecting", id="truncated-json"),
    pytest.param(b'{"name": "\xff"}', "can't decode", id="not-utf8"),
    ({**VALID_EXPERIMENT, "pipeline": {"max_tx_count": "5"}}, "'max_tx_count'"),
    ({**VALID_EXPERIMENT, "pipeline": {"max_tx_count": True}}, "'max_tx_count'"),
    ({**VALID_EXPERIMENT, "pipeline": {"orgs": "org1"}}, "'orgs'"),
    ({**VALID_EXPERIMENT, "workload": {"conflict_pct": "5"}}, "'conflict_pct'"),
    pytest.param({**VALID_EXPERIMENT, "workload": {"crdt_writes": True}},
                 "'crdt_writes' is not a WorkloadConfig field", id="deleted-bool-field"),
    ({**VALID_EXPERIMENT, "sweep_param": "warp"}, "'sweep_param'"),
    ({**VALID_EXPERIMENT, "sweep_values": ["a"]}, "'sweep_values'"),
    ({**VALID_EXPERIMENT, "sweep_param": "max_tx_count", "sweep_values": [5, True]},
     "'sweep_values'"),
    ({**VALID_EXPERIMENT, "sweep_param": "json_complexity", "sweep_values": [1.5]},
     "'sweep_values'"),
    ({**VALID_EXPERIMENT, "workload": {"conflict_pct": 500}},
     "conflict_pct must be within [0, 100], not 500"),
    ({**VALID_EXPERIMENT, "sweep_param": "max_tx_count", "sweep_values": [5, 0]},
     "'sweep_values' point max_tx_count=0: max_tx_count must be positive, not 0"),
    ({**VALID_EXPERIMENT, "sweep_param": "arrival_rate_tps", "sweep_values": [-1]},
     "'sweep_values' point arrival_rate_tps=-1: arrival_rate_tps must be positive, not -1"),
    ({**VALID_EXPERIMENT, "sweep_values": []}, "'sweep_values'"),
    ({**VALID_EXPERIMENT, "pipeline": {"endorsement_k": 1}},
     "'endorsement_k' is not a PipelineConfig field"),
    ({**VALID_EXPERIMENT, "sweep_param": "mode", "sweep_values": ["fabric"]}, "'mode'"),
    ({**VALID_EXPERIMENT, "pipeline": {"orgs": ["org1", 2]}}, "'orgs'"),
    ({**VALID_EXPERIMENT, "piepline": {"mode": "fabric"}}, "'piepline'"),
    ({**VALID_EXPERIMENT, "workload": {"n_read_keys": 0}}, "n_read_keys=0"),
    ({**VALID_EXPERIMENT, "sweep_param": "n_write_keys", "sweep_values": [1, 2]},
     "'sweep_values' point n_write_keys=2: need 1 <= n_write_keys <= n_read_keys"),
    ({**VALID_EXPERIMENT, "workload": {"json_depth": 101}}, "json_depth must be within [1, 100]"),
    ({**VALID_EXPERIMENT, "sweep_param": "arrival_rate_tps", "sweep_values": [300, 5e-324]},
     "'sweep_values' point arrival_rate_tps=5e-324: arrival_rate_tps 5e-324 is too small"),
    pytest.param({**VALID_EXPERIMENT, "name": "sub/x"},
                 "field 'name' must not hold a '/' or a NUL, not 'sub/x'", id="name-with-slash"),
    pytest.param({**VALID_EXPERIMENT, "name": "x\0y"},
                 "field 'name' must not hold a '/' or a NUL, not 'x\\x00y'", id="name-with-nul"),
    pytest.param({**VALID_EXPERIMENT, "name": "x\ud800"},
                 "field 'name' must be UTF-8 text, not 'x\\ud800'", id="name-with-lone-surrogate"),
])
def test_load_experiment_file_names_the_file_and_the_bad_field(tmp_path, doc, field):
    path = tmp_path / "exp.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_experiment_file(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert field in message


# ----------------------------------------------------------------------
# tables


def test_emit_tables_one_csv_per_metric(tmp_path):
    spec = ExperimentSpec(
        name="conflict", pipeline=PipelineConfig(mode=CRDT),
        workload=small_workload(), sweep_param="conflict_pct",
        sweep_values=[0.0, 100.0],
    )
    report = run_experiment(spec)
    paths = emit_tables(report, tmp_path)
    assert len(paths) == len(METRIC_COLUMNS)
    names = {p.name for p in paths}
    assert "conflict_crdt_success_count.csv" in names
    success = (tmp_path / "conflict_crdt_success_count.csv").read_text().splitlines()
    assert success == ["conflict_pct,success_count", "0.0,40", "100.0,40"]


def test_emit_tables_quotes_a_sweep_value_holding_a_comma(tmp_path):
    report = MetricsReport("lists", CRDT, "values", [
        PointMetrics(["a"], 20, 0, 1.5, 2.0, 0.0),
        PointMetrics(["a", "b"], 20, 0, 1.5, 2.0, 0.0),
    ])
    for path in emit_tables(report, tmp_path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [2, 2, 2]
        assert [row[0] for row in rows] == ["values", "['a']", "['a', 'b']"]
    success = (tmp_path / "lists_crdt_success_count.csv").read_text()
    assert success == 'values,success_count\n[\'a\'],20\n"[\'a\', \'b\']",20\n'
