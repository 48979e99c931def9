"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root:
    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import worker  # sets up the import path for crdtsim
import oracle
import tracing
from crdtsim import jsoncrdt, ledger, txpipeline, workload
from crdtsim.bench import populate_world_state
from crdtsim.ledger import BlockLog, WorldState
from crdtsim.txpipeline import VALID, PipelineConfig, Proposal, run_pipeline
from crdtsim.workload import WorkloadConfig, iot_chaincode
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_every_workload_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--txs", "100"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for name in WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            row = [line.split() for line in lines
                   if line.split()[:2] == [name, metric["name"]]]
            assert len(row) == 1, (name, metric["name"])
            assert row[0][-1] == metric["unit"]
            assert final["metrics"][f"{name}/{metric['name']}"]["unit"] == metric["unit"]


def test_oracle_reports_nothing_lost_on_a_fabric_run(tmp_path):
    result = worker.run_once("fabric-fresh", 5, trace=False, check_readings=True, txs=300,
                             work_dir=tmp_path)
    assert result["errors"] == []
    assert result["summary"]["failure_count"] > 0  # real MVCC aborts happened
    assert result["lost_reading_ratio"] == 0.0
    assert result["extra_reading_ratio"] == 0.0


def test_oracle_finds_exactly_the_first_blocks_readings_lost_on_a_two_block_hot_key_run():
    key = "device-hot-0"
    readings = [{"temperatureRoom1": [{"temperatureValue": str(10 + i)}]} for i in range(4)]
    proposals = [Proposal(client_id=f"client{i + 1}", submit_time=i / 1000.0, args=((key,), r))
                 for i, r in enumerate(readings)]
    pipeline = PipelineConfig(mode="crdt", max_tx_count=2, snapshot_policy="batch")
    config = WorkloadConfig(n_read_keys=1, n_write_keys=1)
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, pipeline, [key])
    report = run_pipeline(pipeline, proposals, iot_chaincode(config), ws=ws, log=log)
    assert [t.validity for t in report.txs] == [VALID] * 4
    assert [t.block_height for t in report.txs] == [1, 1, 2, 2]

    check = oracle.check_readings(proposals, report.txs, 1, ws)
    path = ("temperatureRoom1", "temperatureValue")
    assert check.expected == 4
    assert dict(check.lost) == {(key, path, "10"): 1, (key, path, "11"): 1}
    assert not check.extra
    assert check.lost_ratio == 0.5


def test_reading_leaves_skip_the_device_id_and_list_positions():
    doc = {"deviceID": "d", "room": [{"t": "1"}, {"t": "1"}, "x"]}
    assert sorted(oracle.reading_leaves(doc)) == [(("room",), "x"), (("room", "t"), "1"),
                                                  (("room", "t"), "1")]


def test_span_wrappers_are_removed_after_the_traced_run(tmp_path):
    originals = (txpipeline.commit_block, txpipeline.canonical_json_bytes,
                 txpipeline.init_empty_crdt, workload.canonical_json_bytes,
                 jsoncrdt.JsonCrdt.merge_json, ledger.WorldState.digest,
                 txpipeline.Orderer.submit)
    traced = worker.run_once("crdt-hot", 2, trace=True, check_readings=False, txs=50,
                             work_dir=tmp_path)
    plain = worker.run_once("crdt-hot", 2, trace=False, check_readings=False, txs=50,
                            work_dir=tmp_path)
    assert originals == (txpipeline.commit_block, txpipeline.canonical_json_bytes,
                         txpipeline.init_empty_crdt, workload.canonical_json_bytes,
                         jsoncrdt.JsonCrdt.merge_json, ledger.WorldState.digest,
                         txpipeline.Orderer.submit)
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["workload.chaincode_calls"] == 50
    assert layers["jsoncrdt.renders_per_key_block"] == 25.0
    assert layers["txpipeline.blocks"] == 2


def test_spans_of_one_transaction_share_its_tx_id():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda tx: inner(tx), ids=lambda tx: (tx, 7, None))
    inner = tracer.wrap("inner", lambda tx: tx)
    outer("client1-000000")
    first, second = tracer.spans
    assert (first[tracing.NAME], second[tracing.NAME], second[tracing.PARENT]) == ("outer", "inner", 0)
    assert second[tracing.TX_ID] == first[tracing.TX_ID] == "client1-000000"
    assert second[tracing.HEIGHT] == first[tracing.HEIGHT] == 7
