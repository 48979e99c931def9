"""Acceptance gate: one test per required behavior, numbered 01 through 10.

Each test is self-contained and asserts the stated time budget. Where the
expected value is non-trivial it comes from an oracle of
tests/reference_pipeline.py: the path union (06), the leaf multisets (07)
and the block validator, replayed from the genesis (03).
"""

import json
import random
from functools import reduce
from pathlib import Path
from time import perf_counter

from crdtsim.bench import ExperimentSpec, run_experiment, run_single
from crdtsim.jsoncrdt import canonical_json_bytes, init_empty_crdt
from crdtsim.ledger import BlockLog, Version, WorldState, commit_block
from crdtsim.txpipeline import (
    CRDT,
    FABRIC,
    INVALID_MVCC,
    VALID,
    Block,
    PipelineConfig,
    Read,
    ReadWriteSet,
    Transaction,
    Write,
    load_block_log,
    replay_block_log,
    save_block_log,
    validate_merge_block,
)
from crdtsim.workload import WorkloadConfig
from reference_pipeline import (reference_commit, reference_genesis, reference_leaf_multisets,
                                reference_union, reference_validate_block)

DATA = Path(__file__).parent / "data"
ORGS = frozenset({"org1", "org2", "org3"})


def load_doc(name):
    return json.loads((DATA / name).read_text())


def crdt_tx(tx_id, key, doc, endorsed=True):
    return Transaction(
        tx_id=tx_id,
        rwset=ReadWriteSet(reads=(), writes=(Write(key, canonical_json_bytes(doc), True),)),
        endorsements=frozenset({"org1"}) if endorsed else frozenset(),
        submit_time=0.0,
    )


# Shared-schema document pairs: both documents draw their shapes from one
# schema so container kinds always agree at shared paths. Register values
# (strings reached through maps only) are pinned in the schema; string list
# elements are free per document.

KEY_POOL = ("alpha", "beta", "gamma", "delta")


def gen_schema(rng, depth=1, top=False):
    roll = rng.random()
    if not top and (depth >= 3 or roll < 0.4):
        return ("str", f"pin{rng.randrange(1000)}")
    if not top and roll < 0.7:
        return ("list", gen_schema(rng, depth + 1))
    keys = rng.sample(KEY_POOL, rng.randint(1, 3))
    return ("map", {key: gen_schema(rng, depth + 1) for key in keys})


def gen_doc(schema, rng, free_registers, in_list=False):
    kind = schema[0]
    if kind == "str":
        if in_list or free_registers:
            return str(rng.randrange(100))
        return schema[1]
    if kind == "list":
        return [gen_doc(schema[1], rng, free_registers, True)
                for _ in range(rng.randint(1, 3))]
    entries = list(schema[1].items())
    kept = [e for e in entries if rng.random() < 0.75] or entries[:1]
    return {key: gen_doc(sub, rng, free_registers, in_list) for key, sub in kept}


# ----------------------------------------------------------------------
# criteria


def test_criterion_01_golden_merge_of_two_device_writes():
    started = perf_counter()
    tx1_doc = load_doc("device1_tx1.json")
    tx2_doc = load_doc("device1_tx2.json")
    expected = load_doc("device1_merged.json")

    crdt = init_empty_crdt("Device1", tx1_doc)
    crdt.merge_json(tx1_doc)
    crdt.merge_json(tx2_doc)
    assert crdt.to_json() == expected

    block = Block(0, (crdt_tx("t1", "Device1", tx1_doc),
                      crdt_tx("t2", "Device1", tx2_doc)), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    first, second = (tx.rwset.writes[0].value for tx in vblock.transactions)
    assert first == second == canonical_json_bytes(expected)
    assert perf_counter() - started < 1.0


def test_criterion_02_crdt_mode_commits_all_conflicting_transactions():
    started = perf_counter()
    pipeline = PipelineConfig(mode=CRDT, max_tx_count=25, snapshot_policy="batch")
    workload = WorkloadConfig(total_txs=1000, conflict_pct=100.0, seed=42)
    outcome = run_single(pipeline, workload)
    assert outcome.report.success_count == 1000
    assert outcome.report.failure_count == 0
    assert perf_counter() - started < 30.0


def test_criterion_03_fabric_mode_admits_one_verified_by_naive_oracle():
    started = perf_counter()
    pipeline = PipelineConfig(mode=FABRIC, max_tx_count=25, snapshot_policy="batch")
    workload = WorkloadConfig(total_txs=1000, conflict_pct=100.0, seed=42)
    outcome = run_single(pipeline, workload)
    assert outcome.report.success_count == 1
    assert outcome.report.failure_count == 999
    assert outcome.log[0].validity[0].valid  # first transaction of the first block

    state = reference_genesis(outcome.log.genesis.keys, outcome.log.genesis.chunk)
    oracle = {}
    for block in outcome.log:
        block = reference_validate_block(block, state, FABRIC, pipeline.orgs)
        reference_commit(state, block)
        oracle.update((tx.tx_id, verdict.reason) for tx, verdict in zip(block.transactions, block.validity))
    assert len(oracle) == len(outcome.report.txs) == 1000
    for record in outcome.report.txs:
        assert record.validity in (VALID, INVALID_MVCC)
        assert oracle[record.tx_id] == record.validity
    assert perf_counter() - started < 30.0


def test_criterion_04_strict_version_matching_on_the_five_tx_block():
    started = perf_counter()
    ws = WorldState()
    log = BlockLog()
    vn1, vn2, vn3 = Version(1, 0), Version(2, 0), Version(3, 0)
    ws._put("K1", b"VL1", vn1)
    ws._put("K2", b"VL2", vn2)
    ws._put("K3", b"VL3", vn3)
    for height in range(4):
        commit_block(ws, log, Block(height, (), "timeout", ()))

    def tx(tx_id, reads, writes):
        return Transaction(tx_id, ReadWriteSet(tuple(reads), tuple(writes)),
                           frozenset({"org1"}), 0.0)

    block = Block(4, (
        tx("t1", [Read("K2", vn2)], [Write("K2", b"VL1")]),
        tx("t2", [Read("K1", vn1), Read("K2", vn2)], [Write("K3", b"VL3")]),
        tx("t3", [Read("K2", vn2)], [Write("K3", b"VL1")]),
        tx("t4", [Read("K3", vn2)], [Write("K2", b"VL1")]),
        tx("t5", [], [Write("K3", b"VL2")]),
    ), "count")
    vblock = validate_merge_block(block, ws, FABRIC, ORGS)
    reasons = [v.reason for v in vblock.validity]
    assert reasons[0] == VALID
    assert reasons[1] == INVALID_MVCC
    assert reasons[2] == INVALID_MVCC
    # The source narrative labels the fourth transaction valid, yet it reads
    # K3 at K2's version number, which K3 never held; under the version
    # matching rule as stated (read version must equal the stored version)
    # it cannot pass. The rule is implemented as stated, so the fourth
    # transaction evaluates invalid here.
    assert reasons[3] == INVALID_MVCC
    assert reasons[4] == VALID
    commit_block(ws, log, vblock)
    assert ws.get_state("K2") == (b"VL1", Version(4, 0))
    assert ws.get_state("K3") == (b"VL2", Version(4, 4))
    assert ws.get_state("K1") == (b"VL1", vn1)
    assert perf_counter() - started < 1.0


def test_criterion_05_replayed_block_sequences_converge_bytewise(tmp_path):
    started = perf_counter()
    conflicts = (0.0, 25.0, 50.0, 75.0, 100.0)
    for case in range(100):
        pipeline = PipelineConfig(mode=CRDT if case % 2 == 0 else FABRIC, max_tx_count=10)
        workload = WorkloadConfig(total_txs=40, conflict_pct=conflicts[case % 5], seed=case)
        outcome = run_single(pipeline, workload)
        path = tmp_path / f"case{case}.blocklog"
        save_block_log(outcome.log, path)
        first_ws, _ = replay_block_log(load_block_log(path))
        second_ws, _ = replay_block_log(load_block_log(path))
        assert first_ws.canonical_bytes() == second_ws.canonical_bytes()
        assert first_ws.canonical_bytes() == outcome.ws.canonical_bytes()
    assert perf_counter() - started < 120.0


def test_criterion_06_merged_documents_match_the_path_union_oracle():
    started = perf_counter()
    rng = random.Random(606)
    for case in range(500):
        schema = gen_schema(rng, top=True)
        tx_count = rng.randint(1, 5)
        endorsed = [rng.random() > 0.2 for _ in range(tx_count)]
        if not any(endorsed):
            endorsed[0] = True
        docs = [gen_doc(schema, rng, free_registers=True) for _ in range(tx_count)]
        block = Block(0, tuple(
            crdt_tx(f"t{i}", "asset", doc, endorsed=endorsed[i])
            for i, doc in enumerate(docs)
        ), "count")
        ws = WorldState()
        log = BlockLog()
        vblock = validate_merge_block(block, ws, CRDT, ORGS)
        commit_block(ws, log, vblock)
        stored, _ = ws.get_state("asset")
        surviving = [doc for doc, ok in zip(docs, endorsed) if ok]
        assert json.loads(stored) == reduce(reference_union, surviving), f"case {case}"
    assert perf_counter() - started < 60.0


def test_criterion_07_merge_order_permutation_keeps_leaf_multisets():
    started = perf_counter()
    rng = random.Random(707)
    for case in range(1000):
        schema = gen_schema(rng, top=True)
        d1 = gen_doc(schema, rng, free_registers=False)
        d2 = gen_doc(schema, rng, free_registers=False)
        forward = init_empty_crdt("k", d1)
        forward.merge_json(d1)
        forward.merge_json(d2)
        backward = init_empty_crdt("k", d2)
        backward.merge_json(d2)
        backward.merge_json(d1)
        assert (reference_leaf_multisets(forward.to_json())
                == reference_leaf_multisets(backward.to_json())), f"case {case}"
    assert perf_counter() - started < 60.0


def test_criterion_08_conflict_sweep_trend_by_mode():
    started = perf_counter()
    sweep = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]

    def experiment(mode):
        return run_experiment(ExperimentSpec(
            name="conflict_trend",
            pipeline=PipelineConfig(mode=mode, max_tx_count=25),
            workload=WorkloadConfig(total_txs=500, seed=88),
            sweep_param="conflict_pct",
            sweep_values=sweep,
        ))

    fabric_failures = [row.failure_count for row in experiment(FABRIC).rows]
    assert fabric_failures == sorted(fabric_failures)
    assert fabric_failures[0] == 0
    assert fabric_failures[-1] > 0

    crdt_failures = [row.failure_count for row in experiment(CRDT).rows]
    assert crdt_failures == [0, 0, 0, 0, 0, 0]
    assert perf_counter() - started < 120.0


def test_criterion_09_merged_bytes_grow_with_document_complexity():
    started = perf_counter()
    report = run_experiment(ExperimentSpec(
        name="complexity_trend",
        pipeline=PipelineConfig(mode=CRDT, max_tx_count=25),
        workload=WorkloadConfig(total_txs=250, conflict_pct=100.0, seed=99),
        sweep_param="json_complexity",
        sweep_values=[1, 3, 5],
    ))
    medians = [row.median_block_merged_bytes for row in report.rows]
    assert medians == [691.0, 3896.5, 12726.5]
    assert medians == sorted(set(medians)), f"medians not strictly increasing: {medians}"
    assert perf_counter() - started < 180.0


def test_criterion_10_double_spend_block_commits_by_mode():
    started = perf_counter()
    ws = WorldState()
    log = BlockLog()
    asset_doc = {"assetID": "asset-1", "transfers": ["mint:alice"]}
    bootstrap = Block(0, (Transaction(
        "bootstrap-000000",
        ReadWriteSet(reads=(), writes=(Write("asset-1", canonical_json_bytes(asset_doc), False),)),
        frozenset({"org1"}), 0.0), ), "count")
    commit_block(ws, log, validate_merge_block(bootstrap, ws, FABRIC, ORGS))
    asset_version = ws.get_state("asset-1")[1]

    def transfer(i):
        doc = {"assetID": "asset-1", "transfers": [f"alice->attacker{i}"]}
        return Transaction(
            f"spend-{i}",
            ReadWriteSet(reads=(Read("asset-1", asset_version),),
                         writes=(Write("asset-1", canonical_json_bytes(doc), True),)),
            frozenset({"org1"}), 0.0)

    block = Block(1, tuple(transfer(i) for i in range(5)), "count")
    crdt_verdicts = validate_merge_block(block, ws, CRDT, ORGS).validity
    assert sum(v.valid for v in crdt_verdicts) == 5
    fabric_verdicts = validate_merge_block(block, ws, FABRIC, ORGS).validity
    assert sum(v.valid for v in fabric_verdicts) <= 1
    assert sum(v.valid for v in fabric_verdicts) == 1  # the first transfer
    assert perf_counter() - started < 1.0
