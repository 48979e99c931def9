"""run_pipeline against the reference pipeline on drawn configurations and
streams; a fabric run's valid transactions against their serial
re-execution; and the block validator against the reference validator on
drawn blocks, which reach the endorsement verdict that no run can (every
configured org endorses every transaction)."""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crdtsim.bench import populate_world_state, run_single
from crdtsim.ledger import BlockLog, Version, WorldState
from crdtsim.txpipeline import (CRDT, FABRIC, Block, ChaincodeSpec, PipelineConfig, Proposal, Read,
                                ReadWriteSet, Transaction, Write, load_block_log, replay_block_log,
                                run_pipeline, save_block_log, validate_merge_block)
from crdtsim.workload import WorkloadConfig, gen_stream, iot_chaincode, read_key_universe
from reference_pipeline import (State, reference_digest, reference_genesis, reference_json_bytes, reference_run,
                                reference_transaction_jsonable, reference_validate_block)

# A proposal's fault: its first write is of another kind than the readings'
# "deviceID" leaf, or undecodable, or a plain (non-CRDT) write; its chaincode
# raises or writes nothing.
BAD_VALUES = {"kind": b'{"deviceID":["kind"]}', "not json": b"{not json"}
FAULTS = ("kind", "not json", "plain", "raise", "read only", None, None)


def faulty_chaincode(workload: WorkloadConfig) -> ChaincodeSpec:
    iot = iot_chaincode(workload).fn

    def fn(args, snap):
        keys, reading, fault = args
        if fault == "raise":
            raise RuntimeError("chaincode failure")
        rwset = iot((keys, reading), snap)
        if fault == "read only":
            return ReadWriteSet(rwset.reads, ())
        if fault in BAD_VALUES or fault == "plain":
            first, *rest = rwset.writes
            first = Write(first.key, BAD_VALUES.get(fault, first.value), fault != "plain")
            return ReadWriteSet(rwset.reads, (first, *rest))
        return rwset
    return ChaincodeSpec("faulty_iot", fn)


PIPELINES = st.builds(
    PipelineConfig, mode=st.sampled_from([FABRIC, CRDT]), max_tx_count=st.integers(1, 30),
    max_bytes=st.integers(250, 6000) | st.just(128 << 20),  # a few transactions' records, or the default
    block_timeout_ms=st.sampled_from([1.0, 50.0, 2000.0]) | st.floats(0.5, 5000.0),
    orgs=st.lists(st.sampled_from(["org1", 'org"2', "orgé"]), min_size=1, max_size=3, unique=True).map(tuple),
    snapshot_policy=st.sampled_from(["batch", "fresh"]))
WORKLOADS = st.integers(1, 3).flatmap(lambda writes: st.builds(
    WorkloadConfig, total_txs=st.integers(1, 120), arrival_rate_tps=st.sampled_from([2.0, 40.0, 300.0, 5000.0]),
    n_read_keys=st.integers(writes, 3), n_write_keys=st.just(writes), json_keys=st.integers(1, 3),
    json_depth=st.integers(1, 3), conflict_pct=st.sampled_from([0.0, 100.0, 100.0]) | st.floats(0.0, 100.0),
    seed=st.integers(0, 2 ** 32)))


@settings(max_examples=150, deadline=None)
@given(PIPELINES, WORKLOADS, st.booleans(), st.lists(st.sampled_from(FAULTS), min_size=1, max_size=7),
       st.booleans())
def test_run_pipeline_equals_the_reference_pipeline(pipeline, workload, bootstrap, faults, fit):
    if pipeline.mode == CRDT and pipeline.snapshot_policy == "fresh":
        # Every valid write to a hot key carries the key's whole stored
        # document, so under fresh its document grows as the product of the
        # block sizes (ROADMAP item 2): such runs draw at most 20 proposals.
        workload = replace(workload, total_txs=min(workload.total_txs, 20))
    stream = gen_stream(workload)
    proposals = [Proposal(p.client_id, p.submit_time, (*p.args, faults[i % len(faults)]))
                 for i, p in enumerate(stream)]
    keys = read_key_universe(workload, stream) if bootstrap else []
    if fit and pipeline.mode == FABRIC:  # a byte budget that the first two records fill exactly
        _, blocks, _, _ = reference_run(replace(pipeline, max_bytes=1 << 40), proposals,
                                        faulty_chaincode(workload), keys)
        first = [tx for block in blocks for tx in block.transactions][:2]  # fabric keeps them as ordered
        pipeline = replace(pipeline, max_bytes=sum(len(reference_json_bytes(reference_transaction_jsonable(tx)))
                                                   for tx in first) or 1)
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, pipeline, keys)
    report = run_pipeline(pipeline, proposals, faulty_chaincode(workload), ws=ws, log=log)
    records, blocks, log_bytes, digest = reference_run(pipeline, proposals, faulty_chaincode(workload), keys)

    assert [(t.tx_id, t.validity, t.block_height, t.commit_time) for t in report.txs] == records
    assert [block.cut_reason for block in log] == [block.cut_reason for block in blocks]
    with tempfile.TemporaryDirectory() as tmp:
        save_block_log(log, path := Path(tmp) / "blocks.log")
        assert path.read_bytes() == log_bytes
        replayed, _ = replay_block_log(load_block_log(path))
    assert ws.digest() == digest == replayed.digest()


@settings(max_examples=60, deadline=None)
@given(PIPELINES.map(lambda pipeline: replace(pipeline, mode=FABRIC)), WORKLOADS)
def test_fabric_valid_transactions_re_execute_serially_to_the_run(pipeline, workload):
    """Fabric's MVCC makes the valid transactions serializable in block order
    (arXiv:1801.10228): from the genesis, each, re-executed on the state the
    earlier ones left, gives its logged read-write set, and the serial state
    is the run's."""
    outcome = run_single(pipeline, workload)
    args = {f"{p.client_id}-{i:06d}": p.args
            for i, p in enumerate(sorted(gen_stream(workload), key=lambda p: p.submit_time))}
    state = reference_genesis(outcome.log.genesis.keys, outcome.log.genesis.chunk)
    chaincode = iot_chaincode(workload).fn
    for block in outcome.log:
        for i, (tx, verdict) in enumerate(zip(block.transactions, block.validity)):
            if verdict.valid:
                assert chaincode(args[tx.tx_id], state) == tx.rwset
                state.update((w.key, (w.value, Version(block.height, i))) for w in tx.rwset.writes)
    assert reference_digest(state) == outcome.ws.digest()


KEYS = st.sampled_from("abc")
VERSIONS = st.builds(Version, st.integers(0, 1), st.integers(0, 1))
VALUES = st.sampled_from([b'{"r":["1"]}', b'{"r":"flat","e":{}}', b'{"r":{"m":"1"}}', b'{"r":["2"],"s":"x"}',
                          b'"bare"', b"{not json", b'{"n":1}', b'["top"]'])
TRANSACTIONS = st.builds(
    lambda i, reads, writes, orgs: Transaction(f"t{i}", ReadWriteSet(tuple(reads), tuple(writes)), orgs, 0.0),
    st.integers(0, 10 ** 6),
    st.lists(st.builds(Read, KEYS, st.none() | VERSIONS), max_size=2, unique_by=lambda r: r.key),
    st.lists(st.builds(Write, KEYS, VALUES, st.sampled_from([True, True, False])), max_size=3,
             unique_by=lambda w: w.key),
    st.frozensets(st.sampled_from(["org1", "org2", "mallory"]), min_size=1, max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([FABRIC, CRDT]), st.dictionaries(KEYS, st.tuples(VALUES, VERSIONS)),
       st.lists(TRANSACTIONS, max_size=8), st.frozensets(st.sampled_from(["org1", "org2"]), min_size=1))
def test_validate_merge_block_equals_the_reference_validator(mode, state, txs, orgs):
    ws = WorldState()
    for key, (value, version) in state.items():
        ws._put(key, value, version)
    block = Block(2, tuple(txs), "count")
    expected = reference_validate_block(block, State(state), mode, orgs)
    assert validate_merge_block(block, ws, mode, orgs) == expected
