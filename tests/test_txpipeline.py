import io
import json
import math
import struct
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crdtsim import bench, jsoncrdt, txpipeline
from crdtsim.bench import run_single
from crdtsim.cli import main
from crdtsim.jsoncrdt import canonical_json_bytes
from crdtsim.bench import populate_world_state
from crdtsim.ledger import (BlockLog, Genesis, LedgerError, Version, WorldState, commit_block,
                            write_record_file)
from crdtsim.txpipeline import (
    CRDT,
    FABRIC,
    INVALID_DECODE,
    INVALID_ENDORSEMENT,
    INVALID_MVCC,
    INVALID_STRUCTURAL,
    PROPOSAL_FAILURE,
    READ_ONLY,
    VALID,
    Block,
    ChaincodeSpec,
    DuplicateTransactionError,
    Orderer,
    PipelineConfig,
    Proposal,
    Read,
    ReadWriteSet,
    RunReport,
    Transaction,
    TxRecord,
    TxVerdict,
    Write,
    block_from_jsonable,
    block_record,
    load_block_log,
    mvcc_validate,
    replay_block_log,
    run_pipeline,
    save_block_log,
    transaction_encoded_size,
    transaction_from_jsonable,
    validate_merge_block,
)
from crdtsim.workload import WorkloadConfig, iot_chaincode
from reference_pipeline import (ExactSizeOrderer, reference_block_jsonable, reference_json_bytes,
                                reference_transaction_jsonable)

ORGS = frozenset({"org1", "org2", "org3"})

TX1_DOC = {"tempReadings": [{"temperature": "15"}]}
TX2_DOC = {"tempReadings": [{"temperature": "20"}]}
MERGED_DOC = {"tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}


def jbytes(doc):
    return canonical_json_bytes(doc)


def make_tx(tx_id, reads=(), writes=(), orgs=("org1",), submit_time=0.0):
    return Transaction(
        tx_id=tx_id,
        rwset=ReadWriteSet(reads=tuple(reads), writes=tuple(writes)),
        endorsements=frozenset(orgs),
        submit_time=submit_time,
    )


# ----------------------------------------------------------------------
# read-write sets and endorsement


def test_rwset_rejects_duplicate_read_keys():
    with pytest.raises(ValueError):
        ReadWriteSet(reads=(Read("k", None), Read("k", Version(0, 0))))


def test_rwset_rejects_duplicate_write_keys():
    with pytest.raises(ValueError):
        ReadWriteSet(writes=(Write("k", b"a"), Write("k", b"b")))


def test_pipeline_config_validation():
    PipelineConfig().validate()
    with pytest.raises(ValueError):
        PipelineConfig(mode="other").validate()
    with pytest.raises(ValueError):
        PipelineConfig(snapshot_policy="stale").validate()
    with pytest.raises(ValueError):
        PipelineConfig(max_tx_count=0).validate()
    with pytest.raises(ValueError, match="^orgs must name at least one org"):
        PipelineConfig(orgs=()).validate()
    # Not the OverflowError of block_timeout_ms / 1000.0 in run_pipeline, which names no field.
    with pytest.raises(ValueError, match="^block_timeout_ms is too large: it does not fit a float$"):
        PipelineConfig(block_timeout_ms=10**400).validate()
    PipelineConfig(block_timeout_ms=10**308).validate()
    assert len(fields(PipelineConfig)) == 6
    with pytest.raises(TypeError):
        PipelineConfig(endorsement_k=1)


# ----------------------------------------------------------------------
# orderer


def test_orderer_cuts_on_count():
    orderer = Orderer(max_tx_count=3, max_bytes=1 << 30, timeout_s=10.0)
    for i in range(4):
        orderer.submit(make_tx(f"t{i}", writes=[Write("k", b"v")]))
    block = orderer.cut_block(0.0)
    assert block is not None
    assert block.cut_reason == "count"
    assert [tx.tx_id for tx in block.transactions] == ["t0", "t1", "t2"]
    assert len(orderer) == 1
    assert orderer.cut_block(0.0) is None  # one tx left, below every limit


def test_orderer_cuts_on_bytes_with_longest_prefix():
    t0 = make_tx("t0", writes=[Write("k", b"v")])
    t1 = make_tx("t1", writes=[Write("k", b"v")])
    budget = transaction_encoded_size(t0) + transaction_encoded_size(t1)
    orderer = Orderer(max_tx_count=100, max_bytes=budget, timeout_s=10.0)
    orderer.submit(t0)
    assert orderer.cut_block(0.0) is None
    orderer.submit(t1)
    block = orderer.cut_block(0.0)
    assert block.cut_reason == "bytes"
    assert [tx.tx_id for tx in block.transactions] == ["t0", "t1"]


def test_orderer_byte_cut_remainder_below_budget_waits():
    txs = [make_tx(f"t{i}", writes=[Write("k", b"v")]) for i in range(3)]
    budget = transaction_encoded_size(txs[0]) + transaction_encoded_size(txs[1])
    orderer = Orderer(max_tx_count=100, max_bytes=budget, timeout_s=10.0)
    for tx in txs:
        orderer.submit(tx)
    assert [tx.tx_id for tx in orderer.cut_block(0.0).transactions] == ["t0", "t1"]
    assert orderer.cut_block(0.0) is None  # t2 alone is below the budget
    assert len(orderer) == 1


def test_orderer_oversized_transaction_forms_singleton_block():
    orderer = Orderer(max_tx_count=100, max_bytes=1, timeout_s=10.0)
    orderer.submit(make_tx("big", writes=[Write("k", b"v" * 100)]))
    orderer.submit(make_tx("next", writes=[Write("k", b"v")]))
    block = orderer.cut_block(0.0)
    assert block.cut_reason == "bytes"
    assert [tx.tx_id for tx in block.transactions] == ["big"]
    assert len(orderer) == 1


def test_orderer_cuts_all_queued_on_timeout():
    orderer = Orderer(max_tx_count=100, max_bytes=1 << 30, timeout_s=2.0)
    orderer.submit(make_tx("t0", writes=[Write("k", b"v")], submit_time=1.0))
    orderer.submit(make_tx("t1", writes=[Write("k", b"v")], submit_time=2.5))
    assert orderer.cut_block(2.9) is None
    block = orderer.cut_block(3.0)
    assert block.cut_reason == "timeout"
    assert [tx.tx_id for tx in block.transactions] == ["t0", "t1"]
    assert len(orderer) == 0


def test_orderer_timeout_deadline_is_cuttable_despite_rounding():
    # (enqueue + timeout) - enqueue rounds below timeout at this instant, so
    # a "now - enqueue >= timeout" criterion would refuse its own deadline
    enqueue = 3 / 300
    assert (enqueue + 2.0) - enqueue < 2.0
    orderer = Orderer(max_tx_count=100, max_bytes=1 << 30, timeout_s=2.0)
    orderer.submit(make_tx("t0", writes=[Write("k", b"v")], submit_time=enqueue))
    assert orderer.timeout_deadline == enqueue + 2.0
    assert orderer.cut_block(orderer.timeout_deadline).cut_reason == "timeout"


def test_orderer_heights_are_sequential():
    orderer = Orderer(max_tx_count=1, max_bytes=1 << 30, timeout_s=10.0, first_height=5)
    orderer.submit(make_tx("t0", writes=[Write("k", b"v")]))
    orderer.submit(make_tx("t1", writes=[Write("k", b"v")]))
    assert orderer.cut_block(0.0).height == 5
    assert orderer.cut_block(0.0).height == 6


def test_orderer_rejects_duplicate_tx_ids():
    orderer = Orderer(max_tx_count=10, max_bytes=1 << 30, timeout_s=10.0)
    orderer.submit(make_tx("t0", writes=[Write("k", b"v")]))
    with pytest.raises(DuplicateTransactionError):
        orderer.submit(make_tx("t0", writes=[Write("k", b"w")]))


def test_orderer_empty_queue_never_cuts():
    orderer = Orderer(max_tx_count=1, max_bytes=1, timeout_s=0.001)
    assert orderer.cut_block(1e9) is None


# Text the canonical encoder escapes (quote, backslash, control characters),
# passes raw (U+2028, non-ASCII, astral) or both, beside arbitrary text.
TEXT = st.text(alphabet=st.sampled_from('"\\\x00\x1f\n\u2028\x7fé€😀a'), max_size=20) | st.text(max_size=8)
BIG_INTS = st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
TIMES = st.floats() | st.integers(-10 ** 22, 10 ** 22)  # no longer than the longest float
VERSIONS = st.none() | st.builds(Version, BIG_INTS, BIG_INTS)


def transactions(text, versions, values, times, max_size):
    """Transactions of fields drawn from these, with up to max_size of each list."""
    return st.builds(Transaction, tx_id=text, endorsements=st.frozensets(text, max_size=max_size),
                     submit_time=times, rwset=st.builds(
                         ReadWriteSet,
                         reads=st.lists(st.builds(Read, text, versions), max_size=max_size,
                                        unique_by=lambda r: r.key).map(tuple),
                         writes=st.lists(st.builds(Write, text, values, st.booleans()), max_size=max_size,
                                         unique_by=lambda w: w.key).map(tuple)))


TRANSACTIONS = transactions(TEXT, VERSIONS, st.binary(max_size=40), TIMES, 4)


# Each example leaves the bound no slack beyond one comma per list, so a
# smaller constant for any field fails it: the longest float repr, control
# characters (6 bytes each escaped) in every text field, an empty write with
# false, and versions of extreme ints.
WORST_TIME = -2.2250738585072014e-308
WORST_TEXT = "\x00" * 12


@settings(max_examples=500)
@given(TRANSACTIONS)
@example(make_tx("", orgs=(), submit_time=WORST_TIME))
@example(make_tx("", orgs=(), submit_time=float("-inf")))
@example(make_tx("", orgs=(), submit_time=float("nan")))
@example(make_tx(WORST_TEXT, orgs=(WORST_TEXT,), submit_time=WORST_TIME))
@example(make_tx("", orgs=(), reads=[Read(WORST_TEXT, None)], submit_time=WORST_TIME))
@example(make_tx("", orgs=(), writes=[Write(WORST_TEXT, b"\xff" * 7)], submit_time=WORST_TIME))
@example(make_tx("", orgs=(), writes=[Write("", b"", False)], submit_time=WORST_TIME))
@example(make_tx("", orgs=(), reads=[Read("", Version(-10 ** 60, -10 ** 60))], submit_time=WORST_TIME))
@example(make_tx("", orgs=(), reads=[Read("", Version(-1, -1)), Read("\x00", Version(-1, -1))],
                submit_time=WORST_TIME))
def test_size_bound_is_never_below_the_encoded_size(tx):
    assert txpipeline._size_bound(tx) >= transaction_encoded_size(tx)


def _counting_sizer():
    """A stand-in for transaction_encoded_size that counts calls per tx id."""
    calls = Counter()

    def sizer(tx):
        calls[tx.tx_id] += 1
        return transaction_encoded_size(tx)
    return calls, sizer


STREAM_TXS = st.builds(
    lambda reads, writes, time: (reads, writes, time),
    st.lists(st.tuples(TEXT, VERSIONS), max_size=3, unique_by=lambda r: r[0]),
    st.lists(st.tuples(TEXT, st.binary(max_size=300)), min_size=1, max_size=3,
             unique_by=lambda w: w[0]),
    st.floats(0.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(
    max_tx_count=st.integers(1, 8),
    max_bytes=st.integers(1, 3000) | st.sampled_from([1, 1 << 27]),
    timeout_s=st.floats(0.0, 5.0),
    ops=st.lists(st.one_of(STREAM_TXS, st.floats(0.0, 20.0)), max_size=40),
)
def test_bounded_orderer_cuts_the_blocks_of_the_exact_size_orderer(max_tx_count, max_bytes,
                                                                    timeout_s, ops):
    orderer = Orderer(max_tx_count, max_bytes, timeout_s, first_height=3)
    reference = ExactSizeOrderer(max_tx_count, max_bytes, timeout_s, first_height=3)
    calls, sizer = _counting_sizer()
    blocks, expected = [], []
    with mock.patch.object(txpipeline, "transaction_encoded_size", sizer):
        for i, op in enumerate(ops):
            if isinstance(op, float):  # cut at this instant, as often as it cuts
                while (block := orderer.cut_block(op)) is not None:
                    blocks.append(block)
                while (block := reference.cut_block(op)) is not None:
                    expected.append(block)
            else:
                reads, writes, time = op
                tx = make_tx(f"t{i}", reads=[Read(k, v) for k, v in reads],
                             writes=[Write(k, v) for k, v in writes], submit_time=time)
                orderer.submit(tx)
                reference.submit(tx)
            assert len(orderer) == len(reference)
            assert orderer.timeout_deadline == reference.timeout_deadline
    assert blocks == expected
    assert all(n == 1 for n in calls.values())


def test_default_budget_run_never_sizes_a_transaction():
    calls, sizer = _counting_sizer()
    with mock.patch.object(txpipeline, "transaction_encoded_size", sizer):
        outcome = run_single(PipelineConfig(), WorkloadConfig(total_txs=1000))
    assert {b.cut_reason for b in outcome.log[1:]} == {"count"}
    assert sum(calls.values()) == 0


def test_byte_cut_run_sizes_each_transaction_at_most_once():
    calls, sizer = _counting_sizer()
    with mock.patch.object(txpipeline, "transaction_encoded_size", sizer):
        outcome = run_single(PipelineConfig(mode=FABRIC, snapshot_policy="fresh", max_bytes=5000),
                             WorkloadConfig(total_txs=60, conflict_pct=30, json_keys=2, json_depth=3))
    assert "bytes" in {b.cut_reason for b in outcome.log}
    assert calls and max(calls.values()) == 1


def test_lone_surrogate_read_key_fails_at_the_byte_cut_or_the_save(tmp_path):
    # The size bound counts characters, so only exact sizing (reached once a
    # byte cut is possible) or saving the block log encodes the key.
    bad = make_tx("t1", reads=[Read("\udc80", None)], writes=[Write("k", b"v")])
    orderer = Orderer(max_tx_count=100, max_bytes=1, timeout_s=10.0)
    orderer.submit(bad)
    with pytest.raises(UnicodeEncodeError):
        orderer.cut_block(0.0)

    orderer = Orderer(max_tx_count=1, max_bytes=1 << 30, timeout_s=10.0)
    orderer.submit(make_tx("t0", writes=[Write("k", b"v")]))
    orderer.submit(bad)
    ws, log = WorldState(), BlockLog()
    while (block := orderer.cut_block(0.0)) is not None:
        commit_block(ws, log, validate_merge_block(block, ws, FABRIC, ORGS))
    path = tmp_path / "blocks.log"
    path.write_bytes(b"an older log")
    with pytest.raises(UnicodeEncodeError):
        save_block_log(log, path)
    assert not path.exists()  # no loadable first block left behind


# ----------------------------------------------------------------------
# mvcc


def test_mvcc_read_of_absent_key_needs_none_version():
    ws = WorldState()
    tx_none = make_tx("a", reads=[Read("k", None)])
    tx_some = make_tx("b", reads=[Read("k", Version(0, 0))])
    assert mvcc_validate(tx_none, ws, {}) is True
    assert mvcc_validate(tx_some, ws, {}) is False


def test_mvcc_matches_committed_version():
    ws = WorldState()
    ws._put("k", b"v", Version(3, 2))
    assert mvcc_validate(make_tx("a", reads=[Read("k", Version(3, 2))]), ws, {}) is True
    assert mvcc_validate(make_tx("b", reads=[Read("k", Version(3, 1))]), ws, {}) is False
    assert mvcc_validate(make_tx("c", reads=[Read("k", None)]), ws, {}) is False


def test_mvcc_intra_block_overlay_takes_precedence():
    ws = WorldState()
    ws._put("k", b"v", Version(3, 2))
    overlay = {"k": Version(7, 0)}
    assert mvcc_validate(make_tx("a", reads=[Read("k", Version(3, 2))]), ws, overlay) is False
    assert mvcc_validate(make_tx("b", reads=[Read("k", Version(7, 0))]), ws, overlay) is True


def test_mvcc_skip_keys_are_exempt():
    ws = WorldState()
    ws._put("k", b"v", Version(3, 2))
    stale = make_tx("a", reads=[Read("k", None)])
    assert mvcc_validate(stale, ws, {}, skip_keys=frozenset({"k"})) is True


def test_block_of_five_reproduces_strict_version_matching():
    # World state holds K1, K2, K3 at three distinct versions. Five
    # transactions in one block, all endorsed:
    #   t1 reads K2 at its current version and writes K2
    #   t2 reads K1 and K2 at their pre-block versions and writes K3
    #   t3 reads K2 at its pre-block version and writes K3
    #   t4 reads K3 at K2's version number, which K3 never held
    #   t5 reads nothing and writes K3
    ws = WorldState()
    log = BlockLog()
    vn1, vn2, vn3 = Version(1, 0), Version(2, 0), Version(3, 0)
    ws._put("K1", b"VL1", vn1)
    ws._put("K2", b"VL2", vn2)
    ws._put("K3", b"VL3", vn3)
    for height in range(4):
        commit_block(ws, log, replay_stub(height))

    block = Block(4, (
        make_tx("t1", reads=[Read("K2", vn2)], writes=[Write("K2", b"VL1")]),
        make_tx("t2", reads=[Read("K1", vn1), Read("K2", vn2)], writes=[Write("K3", b"VL3")]),
        make_tx("t3", reads=[Read("K2", vn2)], writes=[Write("K3", b"VL1")]),
        make_tx("t4", reads=[Read("K3", vn2)], writes=[Write("K2", b"VL1")]),
        make_tx("t5", reads=[], writes=[Write("K3", b"VL2")]),
    ), "count")
    vblock = validate_merge_block(block, ws, FABRIC, ORGS)
    reasons = [v.reason for v in vblock.validity]
    assert reasons[0] == VALID
    assert reasons[1] == INVALID_MVCC  # K2 bumped by t1 earlier in the block
    assert reasons[2] == INVALID_MVCC
    # t4 reads K3 at a version K3 never held; strict matching cannot pass it
    assert reasons[3] == INVALID_MVCC
    assert reasons[4] == VALID


def replay_stub(height):
    return Block(height, (), "timeout", ())


# ----------------------------------------------------------------------
# decode


@pytest.mark.parametrize("payload, message", [
    (b"\xff\xfe", "not a JSON document: 'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte"),
    (b"{not json", "not a JSON document: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
    (b'["top","level"]', "top-level document must be a map or a string"),
    (b"42", "unsupported leaf 42; encode scalars as text"),
    (b'{"temperature":25}', "unsupported leaf 25; encode scalars as text"),
], ids=["not-utf8", "not-json", "top-level-list", "bare-number", "numeric-leaf"])
def test_undecodable_payload_is_a_decode_verdict_and_a_merge_demo_error(payload, message,
                                                                        capsys, tmp_path):
    # A map and a bare string still decode, on the failed write's key and beside it.
    block = Block(0, (make_tx("t1", writes=[Write("k", payload, True)]),
                      make_tx("t2", writes=[Write("k", jbytes({"a": "1"}), True),
                                            Write("s", jbytes("plain"), True)])), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [INVALID_DECODE, VALID]
    assert [json.loads(w.value) for w in vblock.transactions[1].rwset.writes] == [{"a": "1"},
                                                                                 "plain"]

    path = tmp_path / "doc.json"
    path.write_bytes(payload)
    assert main(["merge-demo", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")


# ----------------------------------------------------------------------
# block validation, fabric mode


def test_fabric_same_key_writers_conflict():
    ws = WorldState()
    block = Block(0, (
        make_tx("t1", reads=[Read("Device1", None)], writes=[Write("Device1", jbytes(TX1_DOC), True)]),
        make_tx("t2", reads=[Read("Device1", None)], writes=[Write("Device1", jbytes(TX2_DOC), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, FABRIC, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC]
    # fabric mode never touches write payloads, flagged or not
    assert vblock.transactions[0].rwset.writes[0].value == jbytes(TX1_DOC)
    assert vblock.transactions[1].rwset.writes[0].value == jbytes(TX2_DOC)


def test_fabric_endorsement_failure_blocks_mvcc():
    # A transaction is endorsed if it names at least one configured org.
    block = Block(0, (
        make_tx("t1", writes=[Write("k", b"v")], orgs=()),
        make_tx("t2", writes=[Write("k", b"v")], orgs=("mallory",)),
        make_tx("t3", writes=[Write("k", b"v")], orgs=("mallory", "org3")),
    ), "count")
    vblock = validate_merge_block(block, WorldState(), FABRIC, ORGS)
    assert [v.reason for v in vblock.validity] == [INVALID_ENDORSEMENT, INVALID_ENDORSEMENT, VALID]


def test_fabric_disjoint_writers_all_commit():
    ws = WorldState()
    block = Block(0, tuple(
        make_tx(f"t{i}", reads=[Read(f"k{i}", None)], writes=[Write(f"k{i}", b"v")])
        for i in range(5)
    ), "count")
    vblock = validate_merge_block(block, ws, FABRIC, ORGS)
    assert all(v.valid for v in vblock.validity)


# ----------------------------------------------------------------------
# block validation, crdt mode


def test_crdt_same_key_writers_merge_and_commit():
    ws = WorldState()
    log = BlockLog()
    block = Block(0, (
        make_tx("t1", reads=[Read("Device1", None)], writes=[Write("Device1", jbytes(TX1_DOC), True)]),
        make_tx("t2", reads=[Read("Device1", None)], writes=[Write("Device1", jbytes(TX2_DOC), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, VALID]
    merged = jbytes(MERGED_DOC)
    assert vblock.transactions[0].rwset.writes[0].value == merged
    assert vblock.transactions[1].rwset.writes[0].value == merged
    commit_block(ws, log, vblock)
    value, version = ws.get_state("Device1")
    assert json.loads(value) == MERGED_DOC
    assert version == Version(0, 1)


def test_crdt_rewrites_are_byte_identical_across_three_writers():
    ws = WorldState()
    docs = [{"r": [{"t": str(10 * i)}]} for i in range(3)]
    block = Block(0, tuple(
        make_tx(f"t{i}", writes=[Write("Device1", jbytes(doc), True)])
        for i, doc in enumerate(docs)
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    values = {tx.rwset.writes[0].value for tx in vblock.transactions}
    assert len(values) == 1
    assert json.loads(values.pop()) == {"r": [{"t": "0"}, {"t": "10"}, {"t": "20"}]}


def test_crdt_valid_writes_of_a_key_share_one_write_and_an_invalid_one_keeps_its_own():
    block = Block(0, (
        make_tx("t1", writes=[Write("k", jbytes({"r": [{"t": "1"}]}), True)]),
        make_tx("t2", writes=[Write("k", jbytes({"r": [{"t": "2"}]}), True)], orgs=()),
        make_tx("t3", writes=[Write("k", jbytes({"r": [{"t": "3"}]}), True)]),
        make_tx("t4", writes=[Write("k", jbytes({"r": [{"t": "4"}]}), True)]),
    ), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_ENDORSEMENT, VALID, VALID]
    first, unendorsed, *rest = [tx.rwset.writes[0] for tx in vblock.transactions]
    assert all(write is first for write in rest)
    assert json.loads(first.value) == {"r": [{"t": "1"}, {"t": "3"}, {"t": "4"}]}
    assert unendorsed is block.transactions[1].rwset.writes[0]


def test_fabric_validation_keeps_every_submitted_write():
    block = Block(0, (
        make_tx("t1", writes=[Write("k", b"1"), Write("m", b"2")]),
        make_tx("t2", reads=[Read("k", None)], writes=[Write("k", b"3")]),
        make_tx("t3", writes=[Write("k", b"4")], orgs=()),
    ), "count")
    vblock = validate_merge_block(block, WorldState(), FABRIC, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC, INVALID_ENDORSEMENT]
    for tx, submitted in zip(vblock.transactions, block.transactions):
        assert all(a is b for a, b in zip(tx.rwset.writes, submitted.rwset.writes, strict=True))


def test_crdt_run_log_holds_one_value_object_per_merged_key_and_block():
    outcome = run_single(PipelineConfig(mode=CRDT, max_tx_count=25),
                         WorkloadConfig(total_txs=100, conflict_pct=100, seed=1))
    values = [w.value for block in outcome.log
              for tx, verdict in zip(block.transactions, block.validity) if verdict.valid
              for w in tx.rwset.writes if w.is_crdt]
    assert len(outcome.log) == 4 and len(values) == 100
    assert len({id(value) for value in values}) == 4


def test_crdt_endorsement_failures_never_merge():
    ws = WorldState()
    block = Block(0, (
        make_tx("t1", writes=[Write("Device1", jbytes(TX1_DOC), True)]),
        make_tx("t2", writes=[Write("Device1", jbytes(TX2_DOC), True)], orgs=()),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_ENDORSEMENT]
    # the merged value holds only the valid payload, and the rejected
    # transaction's payload stays as submitted
    assert vblock.transactions[0].rwset.writes[0].value == jbytes(TX1_DOC)
    assert vblock.transactions[1].rwset.writes[0].value == jbytes(TX2_DOC)


def test_crdt_only_valid_writes_carry_merged_bytes_and_the_log_keeps_the_rest(tmp_path):
    submitted = [jbytes(TX1_DOC), jbytes(TX2_DOC), b"{not json", jbytes({"a": "1"})]
    block = Block(0, (
        make_tx("t1", writes=[Write("k", submitted[0], True)]),
        make_tx("t2", writes=[Write("k", submitted[1], True)], orgs=()),
        make_tx("t3", writes=[Write("k", submitted[2], True)]),
        make_tx("t4", writes=[Write("k", submitted[3], True)]),
    ), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_ENDORSEMENT, INVALID_DECODE,
                                                    VALID]
    merged = jbytes({**TX1_DOC, "a": "1"})
    expected = [merged, submitted[1], submitted[2], merged]
    assert [tx.rwset.writes[0].value for tx in vblock.transactions] == expected

    log = BlockLog()
    commit_block(WorldState(), log, vblock)
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    (loaded,) = load_block_log(path)
    assert loaded == vblock
    assert [tx.rwset.writes[0].value for tx in loaded.transactions] == expected


def test_crdt_decode_failure_invalidates_only_the_offender():
    ws = WorldState()
    block = Block(0, (
        make_tx("t1", writes=[Write("Device1", jbytes(TX1_DOC), True)]),
        make_tx("t2", writes=[Write("Device1", b'{"temperature":25}', True)]),
        make_tx("t3", writes=[Write("Device1", jbytes(TX2_DOC), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_DECODE, VALID]
    assert json.loads(vblock.transactions[0].rwset.writes[0].value) == MERGED_DOC


def test_crdt_decode_failure_precedes_mvcc_and_leaves_the_overlay():
    # t1's read of s is stale, but its undecodable CRDT write decides its
    # verdict first; its plain write of k must not reach the intra-block
    # overlay, so t2's read of k at the committed version stands.
    ws = WorldState()
    ws._put("k", b"v", Version(0, 0))
    ws._put("s", b"v", Version(0, 1))
    block = Block(1, (
        make_tx("t1", reads=[Read("s", None)],
                writes=[Write("Device1", b"not json", True), Write("k", b"x")]),
        make_tx("t2", reads=[Read("k", Version(0, 0))], writes=[Write("m", b"y")]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [INVALID_DECODE, VALID]


def test_crdt_structural_conflict_invalidates_the_later_writer():
    ws = WorldState()
    block = Block(0, (
        make_tx("t1", writes=[Write("k", jbytes({"a": "1"}), True)]),
        make_tx("t2", writes=[Write("k", jbytes({"a": ["x"]}), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_STRUCTURAL]
    assert json.loads(vblock.transactions[0].rwset.writes[0].value) == {"a": "1"}


def test_run_pipeline_gives_decode_and_structural_verdicts_and_commits_none_of_their_bytes(
        tmp_path):
    # Each proposal's args are the (key, value) CRDT writes it makes. A
    # transaction with one bad write merges none of its writes, so "side",
    # written only beside a kind conflict, never reaches the state.
    def fn(args, snap):
        return ReadWriteSet((), tuple(Write(key, value, True) for key, value in args))

    bad = [b"{not json", jbytes({"room": {"t": "x"}}), jbytes({"room": "flat"}), b'{"z": 1}']
    args = [
        (("dev", jbytes({"room": [{"t": "1"}]})),),
        (("dev", bad[0]),),
        (("side", jbytes({"s": "1"})), ("dev", bad[1])),
        (("dev", jbytes({"room": [{"t": "2"}]})),),
        (("dev", bad[2]),),
        (("other", bad[3]),),
    ]
    proposals = [Proposal("client1", i * 0.001, a) for i, a in enumerate(args)]
    config = PipelineConfig(mode=CRDT, max_tx_count=3)
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, config, ["dev"])
    report = run_pipeline(config, proposals, ChaincodeSpec("writer", fn), ws=ws, log=log)
    assert [(t.validity, t.block_height) for t in report.txs] == [
        (VALID, 1), (INVALID_DECODE, 1), (INVALID_STRUCTURAL, 1),
        (VALID, 2), (INVALID_STRUCTURAL, 2), (INVALID_DECODE, 2)]
    # Each block merges into a CRDT made empty for it, so its valid write is the value.
    assert sorted(ws.keys()) == ["dev"]
    assert ws.get_state("dev") == (jbytes({"room": [{"t": "2"}]}), Version(2, 0))
    values = [ws.get_state(key)[0] for key in ws.keys()]
    assert not any(payload in value for payload in bad for value in values)
    # The log keeps every invalid payload as submitted.
    logged = [w.value for block in log for tx in block.transactions for w in tx.rwset.writes]
    assert all(payload in logged for payload in bad)

    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    replayed_ws, _ = replay_block_log(load_block_log(path))
    assert replayed_ws.digest() == ws.digest()


def test_crdt_each_write_is_checked_once_and_merged_from_that_check(monkeypatch):
    calls = {"check": 0, "merge_json": 0, "_pruned_copy": [], "init_empty_crdt": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    nested = []

    def walk(value):  # records outermost calls; the walk recurses through this name
        if not nested:
            calls["_pruned_copy"].append(value)
        nested.append(value)
        try:
            return original_walk(value)
        finally:
            nested.pop()

    original_walk = jsoncrdt._pruned_copy
    monkeypatch.setattr(jsoncrdt.JsonCrdt, "check", counted("check", jsoncrdt.JsonCrdt.check))
    monkeypatch.setattr(jsoncrdt.JsonCrdt, "merge_json",
                        counted("merge_json", jsoncrdt.JsonCrdt.merge_json))
    monkeypatch.setattr(jsoncrdt, "_pruned_copy", walk)
    monkeypatch.setattr(txpipeline, "init_empty_crdt",
                        counted("init_empty_crdt", txpipeline.init_empty_crdt))
    docs = [{"deviceID": "d", "readings": [{"t": str(i)}]} for i in range(25)]
    block = Block(0, tuple(make_tx(f"t{i}", writes=[Write("Device1", jbytes(doc), True)])
                           for i, doc in enumerate(docs)), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    assert all(v.valid for v in vblock.validity)
    assert json.loads(vblock.transactions[0].rwset.writes[0].value)["readings"] == [
        {"t": str(i)} for i in range(25)]
    assert (calls["check"], calls["merge_json"], calls["init_empty_crdt"]) == (25, 25, 1)
    assert calls["_pruned_copy"] == docs  # one walk per write, none of the sample


@pytest.fixture
def made(monkeypatch) -> list:
    """Each CRDT the validator makes, in order."""
    made = []

    def init(key, sample):
        made.append(jsoncrdt.init_empty_crdt(key, sample))
        return made[-1]
    monkeypatch.setattr(txpipeline, "init_empty_crdt", init)
    return made


def test_crdt_transaction_failing_mvcc_after_its_check_leaves_the_crdt_unchanged(made):
    ws = WorldState()
    ws._put("p", b"v", Version(0, 0))
    block = Block(1, (
        make_tx("t0", writes=[Write("A", jbytes({"x": "1"}), True)]),
        # a stale read of p: checked against A's document, then fails MVCC
        make_tx("t1", reads=[Read("p", None)],
                writes=[Write("A", jbytes({"y": ["2", "3"]}), True), Write("q", b"w")]),
        make_tx("t2", writes=[Write("A", jbytes({"z": "4"}), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC, VALID]
    assert [(crdt.to_json(), crdt.clock) for crdt in made] == [({"x": "1", "z": "4"}, 2)]


def test_crdt_each_key_gets_one_crdt_per_block(made):
    block = Block(0, (
        make_tx("t0", writes=[Write("B", jbytes({"x": "1"}), True)]),
        # A's first write: checked against a new CRDT, then B's conflict fails t1
        make_tx("t1", writes=[Write("A", jbytes({"a": ["1"]}), True),
                              Write("B", jbytes({"x": ["2"]}), True)]),
        make_tx("t2", writes=[Write("A", jbytes({"a": "2"}), True)]),
        make_tx("t3", writes=[Write("A", jbytes({"b": "3"}), True)]),
    ), "count")
    vblock = validate_merge_block(block, WorldState(), CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_STRUCTURAL, VALID, VALID]
    assert [(crdt.key, crdt.to_json(), crdt.clock) for crdt in made] == [
        ("B", {"x": "1"}, 1), ("A", {"a": "2", "b": "3"}, 2)]
    assert json.loads(vblock.transactions[3].rwset.writes[0].value) == {"a": "2", "b": "3"}


def test_crdt_structural_conflict_precedes_a_later_undecodable_write():
    ws = WorldState()
    block = Block(0, (
        make_tx("t0", writes=[Write("A", jbytes({"a": "1"}), True)]),
        make_tx("t1", writes=[Write("A", jbytes({"a": ["x"]}), True),
                              Write("B", b"not json", True)]),
        make_tx("t2", writes=[Write("C", jbytes({"n": ["1", 2]}), True)]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    # a shape error on a key's first write is a decode failure
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_STRUCTURAL, INVALID_DECODE]


def validate_and_commit(*txs) -> tuple:
    ws = WorldState()
    vblock = validate_merge_block(Block(0, txs, "count"), ws, CRDT, ORGS)
    commit_block(ws, BlockLog(), vblock)
    return [v.reason for v in vblock.validity], ws


def committed_doc(ws, key):
    return json.loads(ws.get_state(key)[0])


def test_crdt_conflict_part_way_through_a_document_commits_none_of_it():
    verdicts, ws = validate_and_commit(
        make_tx("t0", writes=[Write("A", jbytes({"a": "v"}), True)]),
        # "b" precedes the conflicting "a" in the payload (jbytes would sort it last)
        make_tx("t1", writes=[Write("A", b'{"b":"w","a":{"c":"x"}}', True)]),
    )
    assert verdicts == [VALID, INVALID_STRUCTURAL]
    assert committed_doc(ws, "A") == {"a": "v"}


@pytest.mark.parametrize("bad_b, reason", [
    (jbytes({"z": {"q": "r"}}), INVALID_STRUCTURAL),
    (b'{"z": 1}', INVALID_DECODE),
], ids=["conflict", "undecodable"])
def test_crdt_failure_on_a_later_key_commits_none_of_the_transaction(bad_b, reason):
    verdicts, ws = validate_and_commit(
        make_tx("t0", writes=[Write("A", jbytes({"x": "1"}), True),
                              Write("B", jbytes({"z": "s"}), True)]),
        make_tx("t1", writes=[Write("A", jbytes({"y": "2"}), True), Write("B", bad_b, True)]),
    )
    assert verdicts == [VALID, reason]
    assert committed_doc(ws, "A") == {"x": "1"}
    assert committed_doc(ws, "B") == {"z": "s"}


def test_crdt_transaction_failing_mvcc_merges_none_of_its_payload():
    verdicts, ws = validate_and_commit(
        make_tx("t0", writes=[Write("A", jbytes({"x": "1"}), True), Write("p", b"v")]),
        # t0's write of p makes t1's read of p stale
        make_tx("t1", reads=[Read("p", None)],
                writes=[Write("A", jbytes({"y": "2"}), True), Write("q", b"w")]),
    )
    assert verdicts == [VALID, INVALID_MVCC]
    assert committed_doc(ws, "A") == {"x": "1"}


def test_crdt_all_crdt_write_transactions_skip_mvcc():
    ws = WorldState()
    ws._put("Device1", jbytes({"deviceID": "d"}), Version(0, 0))
    stale_read = Read("Device1", None)  # no longer matches the committed state
    block = Block(1, (
        make_tx("t1", reads=[stale_read], writes=[Write("Device1", jbytes(TX1_DOC), True)]),
        make_tx("t2", reads=[stale_read], writes=[Write("Device1", jbytes(TX2_DOC), True)]),
    ), "count")
    log = BlockLog()
    commit_block(WorldState(), log, replay_stub(0))
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert all(v.valid for v in vblock.validity)


def test_crdt_mixed_transaction_still_checks_plain_reads():
    ws = WorldState()
    ws._put("plain", b"v", Version(0, 0))
    mixed_stale = make_tx("t1", reads=[Read("plain", None)], writes=[
        Write("Device1", jbytes(TX1_DOC), True),
        Write("plain", b"w"),
    ])
    block = Block(1, (mixed_stale,), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert vblock.validity[0].reason == INVALID_MVCC
    # an invalid transaction merges nothing, so its payload stays as submitted
    assert vblock.transactions[0].rwset.writes[0].value == jbytes(TX1_DOC)


def test_crdt_self_written_crdt_keys_are_exempt_from_read_checks():
    ws = WorldState()
    ws._put("Device1", jbytes({"deviceID": "d"}), Version(0, 0))
    tx = make_tx("t1", reads=[Read("Device1", None)], writes=[
        Write("Device1", jbytes(TX1_DOC), True),
        Write("plain", b"w"),
    ])
    vblock = validate_merge_block(Block(1, (tx,), "count"), ws, CRDT, ORGS)
    assert vblock.validity[0].reason == VALID


def test_crdt_valid_transactions_bump_overlay_for_later_plain_readers():
    ws = WorldState()
    first = make_tx("t1", writes=[Write("k", jbytes({"a": "1"}), True)])
    later_plain = make_tx("t2", reads=[Read("k", None)], writes=[Write("other", b"v")])
    vblock = validate_merge_block(Block(0, (first, later_plain), "count"), ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC]


def test_crdt_plain_transactions_behave_as_in_fabric_mode():
    ws = WorldState()
    block = Block(0, (
        make_tx("t1", reads=[Read("k", None)], writes=[Write("k", b"v1")]),
        make_tx("t2", reads=[Read("k", None)], writes=[Write("k", b"v2")]),
    ), "count")
    vblock = validate_merge_block(block, ws, CRDT, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC]


def test_validate_merge_block_rejects_unknown_mode():
    with pytest.raises(ValueError):
        validate_merge_block(Block(0, (), "count"), WorldState(), "other", ORGS)


# ----------------------------------------------------------------------
# one validator for both modes


def run_both_modes(pipeline: PipelineConfig, workload: WorkloadConfig) -> tuple:
    return tuple(run_single(replace(pipeline, mode=mode), workload) for mode in (FABRIC, CRDT))


def plain_iot_chaincode(workload: WorkloadConfig) -> ChaincodeSpec:
    """iot_chaincode with every write's CRDT flag cleared."""
    iot = iot_chaincode(workload).fn

    def fn(args, snap):
        rwset = iot(args, snap)
        return ReadWriteSet(rwset.reads, tuple(replace(write, is_crdt=False) for write in rwset.writes))
    return ChaincodeSpec("plain_iot", fn)


@settings(max_examples=25, deadline=None)
@given(
    conflict_pct=st.integers(0, 100),
    snapshot_policy=st.sampled_from(["batch", "fresh"]),
    rw_keys=st.sampled_from([(1, 1), (3, 2), (2, 1)]),
    block_size=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_property_without_crdt_writes_both_modes_agree(conflict_pct, snapshot_policy, rw_keys,
                                                       block_size, seed):
    pipeline = PipelineConfig(max_tx_count=block_size, snapshot_policy=snapshot_policy)
    workload = WorkloadConfig(total_txs=30, conflict_pct=conflict_pct,
                              n_read_keys=rw_keys[0], n_write_keys=rw_keys[1], seed=seed)
    with mock.patch.object(bench, "iot_chaincode", plain_iot_chaincode):
        fabric, crdt = run_both_modes(pipeline, workload)
    assert [t.validity for t in crdt.report.txs] == [t.validity for t in fabric.report.txs]
    assert list(crdt.log) == list(fabric.log)
    assert crdt.ws.digest() == fabric.ws.digest()


@settings(max_examples=25, deadline=None)
@given(
    snapshot_policy=st.sampled_from(["batch", "fresh"]),
    json_complexity=st.sampled_from([(1, 1), (2, 3)]),
    rw_keys=st.sampled_from([(1, 1), (3, 2)]),
    block_size=st.integers(1, 12),
    seed=st.integers(0, 1000),
)
def test_property_crdt_writes_without_conflict_commit_fabric_state(snapshot_policy, json_complexity,
                                                                   rw_keys, block_size, seed):
    pipeline = PipelineConfig(max_tx_count=block_size, snapshot_policy=snapshot_policy)
    workload = WorkloadConfig(total_txs=30, conflict_pct=0.0,
                              json_keys=json_complexity[0], json_depth=json_complexity[1],
                              n_read_keys=rw_keys[0], n_write_keys=rw_keys[1], seed=seed)
    fabric, crdt = run_both_modes(pipeline, workload)
    assert crdt.report.success_count == fabric.report.success_count == 30
    assert crdt.ws.digest() == fabric.ws.digest()


# ----------------------------------------------------------------------
# pipeline orchestration


def plain_chaincode(write_key="k", read_keys=(), value=b"v", is_crdt=False):
    def fn(args, snap):
        reads = []
        for key in read_keys:
            entry = snap.get_state(key)
            reads.append(Read(key, entry[1] if entry else None))
        return ReadWriteSet(reads=tuple(reads), writes=(Write(write_key, value, is_crdt),))
    return ChaincodeSpec("plain", fn)


def test_run_pipeline_counts_and_heights():
    config = PipelineConfig(mode=CRDT, max_tx_count=2, block_timeout_ms=2000.0)
    proposals = [Proposal("client1", i * 0.01, ()) for i in range(4)]
    log = BlockLog()
    report = run_pipeline(config, proposals, plain_chaincode(), log=log)
    assert report.success_count + report.failure_count == 4
    assert [b.height for b in log] == [0, 1]
    assert all(b.cut_reason == "count" for b in log)
    assert {t.block_height for t in report.txs} == {0, 1}


def test_run_pipeline_commit_time_is_cut_time():
    config = PipelineConfig(mode=CRDT, max_tx_count=100, block_timeout_ms=2000.0)
    proposals = [Proposal("client1", t, ()) for t in (0.0, 0.5, 1.0)]
    log = BlockLog()
    report = run_pipeline(config, proposals, plain_chaincode(), log=log)
    assert all(t.commit_time == 2.0 for t in report.txs)
    assert log[0].cut_reason == "timeout"
    lat = sorted(t.latency_s for t in report.txs)
    assert lat == [1.0, 1.5, 2.0]


def test_run_pipeline_timeout_fires_between_batches():
    config = PipelineConfig(mode=CRDT, max_tx_count=100, block_timeout_ms=1000.0)
    proposals = [Proposal("client1", 0.0, ()), Proposal("client1", 5.0, ())]
    log = BlockLog()
    report = run_pipeline(config, proposals, plain_chaincode(), log=log)
    assert [b.cut_reason for b in log] == ["timeout", "timeout"]
    assert [t.commit_time for t in report.txs] == [1.0, 6.0]


def test_run_pipeline_final_drain_settles_fractional_tail():
    # a tail block whose timeout deadline rounds below enqueue + timeout
    # must still cut and classify every transaction
    config = PipelineConfig(mode=CRDT, max_tx_count=100, block_timeout_ms=2000.0)
    times = [3 / 300, 4 / 300]
    log = BlockLog()
    report = run_pipeline(config, [Proposal("client1", t, ()) for t in times],
                          plain_chaincode(), log=log)
    assert [t.validity for t in report.txs] == [VALID, VALID]
    assert all(t.commit_time == times[0] + 2.0 for t in report.txs)
    assert log[0].cut_reason == "timeout"


def test_run_pipeline_tx_ids_are_unique_and_client_scoped():
    config = PipelineConfig(mode=CRDT, max_tx_count=2)
    proposals = [Proposal(f"client{1 + i % 2}", i * 0.01, ()) for i in range(4)]
    report = run_pipeline(config, proposals, plain_chaincode())
    ids = [t.tx_id for t in report.txs]
    assert len(set(ids)) == 4
    assert ids[0].startswith("client1-") and ids[1].startswith("client2-")


def test_run_pipeline_read_only_proposals_are_not_ordered():
    def fn(args, snap):
        return ReadWriteSet(reads=(Read("k", None),), writes=())
    config = PipelineConfig(mode=CRDT, max_tx_count=1)
    log = BlockLog()
    report = run_pipeline(config, [Proposal("client1", 0.0, ())], ChaincodeSpec("ro", fn),
                          log=log)
    assert report.txs[0].validity == READ_ONLY
    assert log == []
    assert report.success_count == 0


def test_run_pipeline_records_proposal_failures():
    def fn(args, snap):
        raise KeyError("missing")
    config = PipelineConfig(mode=CRDT, max_tx_count=1)
    report = run_pipeline(config, [Proposal("client1", 0.0, ())], ChaincodeSpec("cc", fn))
    assert report.txs[0].validity == PROPOSAL_FAILURE == "proposal_failure"
    assert report.failure_count == 0  # never reached a block


def test_run_pipeline_endorsement_short_circuit():
    # With no org to endorse, no transaction could be: the run fails before any proposal.
    config = PipelineConfig(mode=CRDT, max_tx_count=1, orgs=())
    with pytest.raises(ValueError, match="^orgs must name at least one org"):
        run_pipeline(config, [Proposal("client1", 0.0, ())], plain_chaincode())


def test_run_pipeline_batch_snapshot_marks_later_writers_stale():
    config = PipelineConfig(mode=FABRIC, max_tx_count=100, block_timeout_ms=1000.0,
                            snapshot_policy="batch")
    proposals = [Proposal("client1", 0.0, ()), Proposal("client1", 5.0, ())]
    cc = plain_chaincode(write_key="k", read_keys=("k",))
    report = run_pipeline(config, proposals, cc)
    assert [t.validity for t in report.txs] == [VALID, INVALID_MVCC]


def test_run_pipeline_fresh_snapshot_sees_committed_state():
    config = PipelineConfig(mode=FABRIC, max_tx_count=100, block_timeout_ms=1000.0,
                            snapshot_policy="fresh")
    proposals = [Proposal("client1", 0.0, ()), Proposal("client1", 5.0, ())]
    cc = plain_chaincode(write_key="k", read_keys=("k",))
    report = run_pipeline(config, proposals, cc)
    assert [t.validity for t in report.txs] == [VALID, VALID]


def test_run_pipeline_throughput_and_latency_accounting():
    config = PipelineConfig(mode=CRDT, max_tx_count=2)
    proposals = [Proposal("client1", 0.0, ()), Proposal("client1", 1.0, ())]
    report = run_pipeline(config, proposals, plain_chaincode())
    assert report.success_count == 2
    assert report.throughput_tps == pytest.approx(2.0 / 1.0)
    assert report.avg_latency_ms == pytest.approx(500.0)
    summary = report.summary()
    assert summary["success_count"] == 2


def test_avg_latency_ms_divides_first_only_where_scaling_the_sum_overflows():
    def report(*latencies):
        return RunReport([TxRecord(f"t{i}", "c", 0.0, lat, VALID, 0) for i, lat in enumerate(latencies)])

    latencies = (0.1, 0.2, 0.7, 1e-3)
    assert report(*latencies).avg_latency_ms == 1000.0 * sum(latencies) / len(latencies)
    # 1000 * 3e305 overflows, and 2,000 latencies of 1e305 s overflow their sum.
    assert report(1e305, 1e305, 1e305).avg_latency_ms == 1e308
    assert report(*[1e305] * 2000).avg_latency_ms == pytest.approx(1e308)
    assert report(1.7e308, 1.7e308).avg_latency_ms == math.inf  # the mean in ms is beyond float range


def test_run_pipeline_report_csv_shape():
    config = PipelineConfig(mode=CRDT, max_tx_count=1)
    report = run_pipeline(config, [Proposal("client1", 0.0, ())], plain_chaincode())
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tx_id,submit_time,commit_time,validity,block_height"
    assert lines[1].startswith("client1-000000,0.0,0.0,valid,0")
    assert lines[-1].startswith("summary,")


def test_run_pipeline_report_json_lines_shape():
    config = PipelineConfig(mode=CRDT, max_tx_count=1)
    report = run_pipeline(config, [Proposal("client1", 0.0, ())], plain_chaincode())
    buf = io.StringIO()
    report.write_json_lines(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[0]["tx_id"] == "client1-000000"
    assert "summary" in lines[-1]


# ----------------------------------------------------------------------
# serialization and replay


# Every field of the declared type, drawn wide: text from all of Unicode but
# surrogates, with the characters the encoder escapes; every float, extreme
# ones and ints among them; ints beyond 64 bits; empty lists; every verdict;
# write values often from a small pool, so that equal values repeat within a
# transaction, across transactions and across keys.
ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12) | TEXT
ANY_TIMES = (st.floats() | st.integers()
             | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                                1.7976931348623157e308]))
ANY_INTS = st.integers() | st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.just(2 ** 64)
ANY_VALUES = st.sampled_from([b"", b"v", b"w", bytes(range(40))]) | st.binary(max_size=40)
ANY_TRANSACTIONS = transactions(ANY_TEXT, st.none() | st.builds(Version, ANY_INTS, ANY_INTS), ANY_VALUES,
                                ANY_TIMES, 3)
ANY_BLOCKS = st.builds(
    Block,
    height=ANY_INTS,
    transactions=st.lists(ANY_TRANSACTIONS, max_size=4).map(tuple),
    cut_reason=st.sampled_from(txpipeline.CUT_REASONS) | ANY_TEXT,
    validity=st.lists(st.sampled_from(sorted(txpipeline.VERDICTS.values(), key=lambda v: v.reason)),
                      max_size=5).map(tuple),
)


@settings(max_examples=400)
@given(ANY_BLOCKS)
@example(Block(2 ** 70, tuple(make_tx('"\\\x00\u2028é😀', orgs=(), submit_time=t) for t in
                              (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 2 ** 70)),
               "count"))
def test_block_record_equals_the_canonical_encoding_of_the_reference(block):
    assert block_record(block) == reference_json_bytes(reference_block_jsonable(block))
    for tx in block.transactions:
        assert transaction_encoded_size(tx) == len(reference_json_bytes(reference_transaction_jsonable(tx)))


@pytest.mark.parametrize("tx, cut_reason", [
    (make_tx("\udc80"), "count"),
    (make_tx("t", orgs=("\ud800",)), "count"),
    (make_tx("t", reads=[Read("\udfff", None)]), "count"),
    (make_tx("t", writes=[Write("a\udc80b", b"v")]), "count"),
    (make_tx("t"), "\udc80"),
], ids=["tx-id", "org", "read-key", "write-key", "cut-reason"])
def test_lone_surrogate_text_fails_the_record_as_it_fails_the_reference(tx, cut_reason):
    block = Block(0, (tx,), cut_reason, (TxVerdict(True, VALID),))
    with pytest.raises(UnicodeEncodeError):
        reference_json_bytes(reference_block_jsonable(block))
    with pytest.raises(UnicodeEncodeError):
        block_record(block)
    if cut_reason == "count":
        with pytest.raises(UnicodeEncodeError):
            transaction_encoded_size(tx)


def test_transaction_round_trips_through_jsonable():
    tx = make_tx("t1",
                 reads=[Read("a", Version(1, 2)), Read("b", None)],
                 writes=[Write("k", bytes([0, 255, 128]), True), Write("m", b"plain")],
                 orgs=("org2", "org1"), submit_time=1.25)
    (doc,) = json.loads(block_record(Block(0, (tx,), "count")))["transactions"]
    assert transaction_from_jsonable(doc) == tx


@settings(max_examples=100)
@given(st.text(), st.text(min_size=1), st.binary(max_size=8),
       st.sampled_from([1e-05, 1e300, 3.0, 0.1, 0.0]) | st.floats(min_value=0, allow_nan=False))
def test_property_transaction_encoding_equals_sorted_compact_dumps(tx_id, key, value, submit_time):
    tx = make_tx(tx_id, reads=[Read(key, Version(1, 2))], writes=[Write(key, value, True)],
                 submit_time=submit_time)
    jsonable = reference_transaction_jsonable(tx)
    assert canonical_json_bytes(jsonable) == reference_json_bytes(jsonable)


def test_block_round_trips_through_jsonable():
    vblock = Block(3, (make_tx("t1", writes=[Write("k", b"v")]),), "bytes",
                   (TxVerdict(False, INVALID_MVCC),))
    assert block_from_jsonable(json.loads(block_record(vblock))) == vblock


def test_save_load_replay_reproduces_state(tmp_path):
    config = PipelineConfig(mode=CRDT, max_tx_count=2)
    proposals = [Proposal("client1", i * 0.01, ()) for i in range(6)]
    ws = WorldState()
    log = BlockLog()
    cc = plain_chaincode(write_key="Device1", value=jbytes(TX1_DOC), is_crdt=True)
    run_pipeline(config, proposals, cc, ws=ws, log=log)
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    replayed_ws, replayed_log = replay_block_log(load_block_log(path))
    assert replayed_ws.digest() == ws.digest()
    assert len(replayed_log) == len(log)
    again_ws, _ = replay_block_log(load_block_log(path))
    assert again_ws.canonical_bytes() == replayed_ws.canonical_bytes()


def test_load_block_log_of_an_empty_file_fails_naming_it(tmp_path):
    path = tmp_path / "empty.log"
    path.write_bytes(b"")
    with pytest.raises(LedgerError, match="no record; a saved block log holds its genesis") as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("log", [BlockLog(), []], ids=["empty-block-log", "empty-list"])
def test_save_block_log_refuses_a_log_that_would_save_as_an_empty_file(tmp_path, log):
    path = tmp_path / "blocks.log"
    with pytest.raises(LedgerError, match="needs a genesis or a block") as info:
        save_block_log(log, path)
    assert str(info.value).startswith(f"{path}: ")
    assert not path.exists()


def test_a_genesis_of_no_keys_saves_and_loads(tmp_path):
    # The empty genesis is a record, so the smallest log a run saves loads.
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, PipelineConfig(), [])
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    loaded = load_block_log(path)
    assert loaded.genesis == Genesis((), 25) and loaded == []


# The start of the error for record 1 when it decodes to a block whose
# writer bytes differ from it.
NOT_WRITTEN = "record 1: ValueError: not the writer's bytes from byte"


def damage_record_1(edit):
    return lambda records: [records[0], edit(records[1]), *records[2:]]


def replace_last(record, old, new):
    head, found, tail = record.rpartition(old)
    assert found
    return head + new + tail


@pytest.mark.parametrize("damage, error", [
    (damage_record_1(lambda record: record.replace(b'"height":', b'"height"')),
     "record 1: JSONDecodeError: Expecting ':' delimiter"),
    (damage_record_1(lambda record: record.replace(b'"height"', b'"heigth"')),
     "record 1: KeyError: 'height'"),
    (damage_record_1(lambda record: record.replace(b'"validity":[[true', b'"validity":[[true,1')),
     "record 1: ValueError: too many values to unpack"),
    # verdicts that disagree with the transactions would replay a wrong digest
    (damage_record_1(lambda record: record.replace(b',[false,"mvcc"]]', b']')),
     "record 1: ValueError: 1 verdicts for 2 transactions"),
    (damage_record_1(lambda record: record.replace(b'[false,"mvcc"]', b'[true,"mvcc"]')),
     NOT_WRITTEN + " 285 on: b'true,\"mvcc\"]]}' where it writes b'false,\"mvcc\"]]}'"),
    (damage_record_1(lambda record: record.replace(b'"mvcc"', b'"stale"')),
     "record 1: KeyError: 'stale'"),
    # records out of height order would fail later without naming the file
    (lambda records: [records[0], records[2], records[1]], "record 1: ValueError: height 2 out of order"),
    (lambda records: [records[0], records[2]], "record 1: ValueError: height 2 out of order"),
    (lambda records: records + records[-1:], "record 3: ValueError: height 2 out of order"),
    # 1.0 == 1 and True == 1, so these pass the order check and would reach
    # the digest through the committed versions
    (damage_record_1(lambda record: record.replace(b'"height":1,', b'"height":1.0,')),
     "record 1: ValueError: height 1.0 is not an int"),
    (damage_record_1(lambda record: record.replace(b'"height":1,', b'"height":true,')),
     "record 1: ValueError: height True is not an int"),
    (damage_record_1(lambda record: record.replace(b'["k",[5,1]]', b'["k",[5.0,1]]')),
     "record 1: ValueError: version [5.0, 1] is not two ints"),
    (damage_record_1(lambda record: record.replace(b'["k",[5,1]]', b'["k",[5,false]]')),
     "record 1: ValueError: version [5, False] is not two ints"),
    # a key that is not text would fail the digest naming no file
    (damage_record_1(lambda record: record.replace(b'[["k","dg=="', b'[[7,"dg=="')),
     "record 1: TypeError: transaction 0: first argument must be a string, not int"),
    # fields block_record never writes so: the loaded block would save as a
    # different file
    (damage_record_1(lambda record: record.replace(b'"dg==",false', b'"dg==","no"')),
     NOT_WRITTEN + " 138 on: b'\"no\"]]},{\"endors' where it writes b'true]]},{\"endors'"),
    (damage_record_1(lambda record: record.replace(b'"tx_id":"t1"', b'"tx_id":1')),
     "record 1: TypeError: transaction 0: first argument must be a string, not int"),
    (damage_record_1(lambda record: record.replace(b'"submit_time":0.0', b'"submit_time":"soon"')),
     "record 1: ValueError: submit time 'soon' is not a float"),
    (damage_record_1(lambda record: record.replace(b'"submit_time":0.0', b'"submit_time":0')),
     "record 1: ValueError: submit time 0 is not a float"),
    (damage_record_1(lambda record: record.replace(b'["org1"]', b'[1]')),
     "record 1: TypeError: transaction 0: first argument must be a string, not int"),
    (damage_record_1(lambda record: record.replace(b'["org1"]', b'"org1"')),
     NOT_WRITTEN + " 65 on: b'\"org1\",\"reads\":[' where it writes b'[\"1\",\"g\",\"o\",\"r\"'"),
    # t2's list differs from t1's, so it loads as a set of its own, which the
    # writer cannot sort; the order of the operands follows the set's hashes
    (damage_record_1(lambda record: replace_last(record, b'["org1"]', b'["org1",7]')),
     "record 1: TypeError: transaction 1: '<' not supported between instances of"),
    (damage_record_1(lambda record: replace_last(record, b'["org1"]', b'[["org1"]]')),
     "record 1: TypeError: unhashable type: 'list'"),
    (damage_record_1(lambda record: record.replace(b'["k",[5,1]]', b'[7,[5,1]]')),
     "record 1: TypeError: transaction 1: first argument must be a string, not int"),
    (damage_record_1(lambda record: record.replace(b'"cut_reason":"count"', b'"cut_reason":7')),
     "record 1: ValueError: unknown cut reason 7"),
    # both decode to b"v", as "dg==" does, but would save as "dg=="
    (damage_record_1(lambda record: record.replace(b'"dg=="', b'"d!g=="')),
     NOT_WRITTEN + " 133 on: b'!g==\",false]]},{' where it writes b'g==\",false]]},{\"'"),
    (damage_record_1(lambda record: record.replace(b'"dg=="', b'"dh=="')),
     NOT_WRITTEN + " 133 on: b'h==\",false]]},{\"' where it writes b'g==\",false]]},{\"'"),
    (damage_record_1(lambda record: record.replace(b'"dg=="', b'"dg="')),
     "record 1: ValueError: write 'k': value is not base64: Incorrect padding"),
    (damage_record_1(lambda record: b"[" * 200_000),
     "record 1: RecursionError: maximum recursion depth exceeded"),
    # json.loads reads each of these as the block of the unedited record, so
    # only the comparison with the writer's bytes rejects them
    (damage_record_1(lambda record: record.replace(b'"validity"', b'"note":"x","validity"')),
     NOT_WRITTEN + " 258 on"),
    (damage_record_1(lambda record: record.replace(b'"tx_id":"t1",', b'"tx_id":"t1","note":"x",')),
     NOT_WRITTEN + " 117 on"),
    (damage_record_1(lambda record: record.replace(b'"height":1', b'"height": 1')),
     NOT_WRITTEN + " 31 on"),
    (damage_record_1(lambda record: record.replace(b'"submit_time":0.0', b'"submit_time":0.00', 1)),
     NOT_WRITTEN + " 102 on"),
    (damage_record_1(lambda record: record.replace(b'"cut_reason":"count","height":1,',
                                                   b'"height":1,"cut_reason":"count",')),
     NOT_WRITTEN + " 2 on"),
    (damage_record_1(lambda record: record.replace(b'"height":1,', b'"height":1,"height":1,')),
     NOT_WRITTEN + " 34 on"),
], ids=["not-json", "no-height", "bad-verdict", "verdict-missing", "verdict-contradicts-reason",
        "verdict-unknown-reason", "records-swapped", "record-dropped", "last-record-repeated",
        "float-height", "bool-height", "float-version", "bool-version", "int-write-key",
        "text-crdt-flag", "int-tx-id", "text-submit-time", "int-submit-time", "int-org",
        "text-endorsements", "int-org-in-a-later-list", "list-org", "int-read-key",
        "int-cut-reason", "non-base64-value", "non-canonical-base64-value",
        "unpadded-base64-value", "too-deep",
        "unknown-field", "unknown-transaction-field", "space-after-colon", "float-written-0.00",
        "fields-reordered", "height-duplicated"])
def test_load_block_log_names_the_file_and_the_bad_record(tmp_path, damage, error):
    block = Block(0, (make_tx("t1", writes=[Write("k", b"v")]),
                      make_tx("t2", reads=[Read("k", Version(5, 1))], writes=[Write("k", b"w")])),
                  "count", (TxVerdict(True, VALID), TxVerdict(False, INVALID_MVCC)))
    records = [block_record(replace(block, height=h)) for h in range(3)]
    path = tmp_path / "blocks.log"
    write_record_file(path, damage(records))
    with pytest.raises(LedgerError) as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: {error}")


def test_a_record_writes_each_distinct_value_once():
    block = Block(0, (make_tx("t1", writes=[Write("k", b"v"), Write("m", b"v", True)]),
                      make_tx("t2", writes=[Write("k", b"w", True), Write("m", b"v")])),
                  "count", (TxVerdict(True, VALID),) * 2)
    record = block_record(block)
    assert b'"writes":[["k","dg==",false],["m",0,true]]' in record
    assert b'"writes":[["k","dw==",true],["m",0,false]]' in record
    # the orderer sizes the stand-alone envelope, every value inline
    assert transaction_encoded_size(block.transactions[0]) == len(
        b'{"endorsements":["org1"],"reads":[],"submit_time":0.0,"tx_id":"t1",'
        b'"writes":[["k","dg==",false],["m","dg==",true]]}')


@settings(max_examples=200)
@given(st.lists(ANY_TRANSACTIONS.filter(lambda tx: type(tx.submit_time) is float
                                        and tx.submit_time == tx.submit_time),
                max_size=4, unique_by=lambda tx: tx.tx_id))
def test_property_blocks_round_trip_and_equal_values_load_as_one_object(txs):
    block = Block(7, tuple(txs), "count", (TxVerdict(True, VALID),) * len(txs))
    loaded = block_from_jsonable(json.loads(block_record(block)))
    assert loaded == block
    values = {}
    for tx in loaded.transactions:
        for write in tx.rwset.writes:
            assert values.setdefault(write.value, write.value) is write.value


# t1 writes b"v" and b"w" inline as values 0 and 1; t2's write of b"w" refers to 1.
REFERRING_BLOCK = Block(0, (make_tx("t1", writes=[Write("k", b"v"), Write("m", b"w")]),
                            make_tx("t2", writes=[Write("k", b"w")])),
                        "count", (TxVerdict(True, VALID),) * 2)


@pytest.mark.parametrize("old, new, error", [
    # True == 1, a valid index, but the writer writes 1
    (b'["k",1,false]', b'["k",true,false]', NOT_WRITTEN + " 248 on: b'true,false]]}],\"'"),
    (b'["k",1,false]', b'["k",1.0,false]',
     "record 1: TypeError: list indices must be integers or slices, not float"),
    # a list index from the end, but the writer writes 1
    (b'["k",1,false]', b'["k",-1,false]', NOT_WRITTEN + " 248 on: b'-1,false]]}],\"va'"),
    (b'["k",1,false]', b'["k",2,false]', "record 1: IndexError: list index out of range"),
    (b'["k",1,false]', b'["k",null,false]',
     "record 1: TypeError: list indices must be integers or slices, not NoneType"),
    (b'["k","dg==",false]', b'["k",0,false]', "record 1: IndexError: list index out of range"),
], ids=["bool", "float", "negative", "out-of-range", "null", "before-any-inline-value"])
def test_load_block_log_rejects_a_bad_value_reference_naming_the_file_and_record(
        tmp_path, old, new, error):
    records = [block_record(replace(REFERRING_BLOCK, height=h)) for h in range(3)]
    assert b'"writes":[["k",1,false]]' in records[1]
    path = tmp_path / "blocks.log"
    write_record_file(path, damage_record_1(lambda record: record.replace(old, new))(records))
    with pytest.raises(LedgerError) as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: {error}")


def test_a_record_loads_with_references_or_every_value_inline_but_not_mixed(tmp_path):
    block = Block(1, tuple(make_tx(f"t{i}", writes=[Write("k", b"v")]) for i in range(3)), "count",
                  (TxVerdict(True, VALID),) * 3)
    with_references = block_record(block)
    all_inline = block_record(block, references=False)
    assert with_references.count(b'["k",0,false]') == 2 and all_inline.count(b'"dg=="') == 3
    # one repeated inline text, then one index: neither of the writer's forms
    mixed = with_references.replace(b'["k",0,false]', b'["k","dg==",false]', 1)
    path = tmp_path / "blocks.log"
    for record in (with_references, all_inline):
        write_record_file(path, [block_record(Block(0, (), "count")), record])
        assert load_block_log(path)[1] == block
    write_record_file(path, [block_record(Block(0, (), "count")), mixed])
    with pytest.raises(LedgerError) as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: {NOT_WRITTEN} {mixed.rindex(b'0,false')} on")


LOADABLE_BLOCKS = st.lists(ANY_TRANSACTIONS.filter(lambda tx: type(tx.submit_time) is float),
                           max_size=3).flatmap(lambda txs: st.builds(
                               Block, st.just(1), st.just(tuple(txs)),
                               st.sampled_from(txpipeline.CUT_REASONS),
                               st.lists(st.sampled_from(sorted(txpipeline.VERDICTS.values(),
                                                               key=lambda v: v.reason)),
                                        min_size=len(txs), max_size=len(txs)).map(tuple)))


@settings(max_examples=300)
@given(LOADABLE_BLOCKS, st.sampled_from(["insert", "delete", "substitute"]), st.data())
def test_property_a_record_loads_only_as_the_writers_bytes(tmp_path_factory, block, edit, data):
    path = tmp_path_factory.getbasetemp() / "edited.log"
    first = block_record(Block(0, (), "count"))
    record = block_record(block)
    write_record_file(path, [first, record])
    assert block_record(load_block_log(path)[1]) == record
    at = data.draw(st.integers(0, len(record) - (edit != "insert")))
    byte = b"" if edit == "delete" else bytes([data.draw(st.integers(0, 255))])
    edited = record[:at] + byte + record[at + (edit != "insert"):]
    write_record_file(path, [first, edited])
    try:
        loaded = load_block_log(path)
    except LedgerError as exc:
        assert str(exc).startswith(f"{path}: record 1: ")
    else:
        assert edited in (block_record(loaded[1]), block_record(loaded[1], references=False))


def genesis_then_blocks(genesis=b'{"chunk":2,"genesis":["a","b","c"]}', first_height=2):
    """A genesis record, ["a","b","c"] in chunks of 2 by default, so two
    heights, then two block records from first_height on."""
    block = Block(0, (make_tx("t1", reads=[Read("a", Version(0, 0))], writes=[Write("a", b"v")]),),
                  "count", (TxVerdict(True, VALID),))
    return [genesis] + [block_record(replace(block, height=h)) for h in (first_height, first_height + 1)]


@pytest.mark.parametrize("records, error", [
    (genesis_then_blocks(b'{"chunk":2,"genesis":"abc"}'),
     "record 0: ValueError: not the writer's bytes from byte 21 on: b'\"abc\"}' where it writes b'[\"a\","),
    (genesis_then_blocks(b'{"chunk":2,"genesis":["a",7,"c"]}'),
     "record 0: ValueError: genesis key 7 is not text"),
    (genesis_then_blocks(b'{"chunk":2,"genesis":["a","b","a"]}'),
     "record 0: ValueError: duplicate genesis keys"),
    (genesis_then_blocks(b'{"chunk":true,"genesis":["a","b","c"]}'),
     "record 0: ValueError: genesis chunk True is not an int of at least 1"),
    (genesis_then_blocks(b'{"chunk":2.0,"genesis":["a","b","c"]}'),
     "record 0: ValueError: genesis chunk 2.0 is not an int of at least 1"),
    (genesis_then_blocks(b'{"chunk":"2","genesis":["a","b","c"]}'),
     "record 0: ValueError: genesis chunk '2' is not an int of at least 1"),
    (genesis_then_blocks(b'{"chunk":0,"genesis":["a","b","c"]}'),
     "record 0: ValueError: genesis chunk 0 is not an int of at least 1"),
    (genesis_then_blocks(b'{"chunk":-2,"genesis":["a","b","c"]}'),
     "record 0: ValueError: genesis chunk -2 is not an int of at least 1"),
    (genesis_then_blocks(b'{"genesis":["a","b","c"]}'), "record 0: KeyError: 'chunk'"),
    (genesis_then_blocks(b'{"chunk":2,"genesis":["a","b","c"],"height":0}'),
     "record 0: ValueError: not the writer's bytes from byte 34 on: b',\"height\":0}' where it writes b'}'"),
    (genesis_then_blocks(first_height=0)[1:2] + genesis_then_blocks()[:1],
     "record 1: ValueError: genesis record after record 0"),
    (genesis_then_blocks()[:1] * 2, "record 1: ValueError: genesis record after record 0"),
    (genesis_then_blocks(first_height=0), "record 1: ValueError: height 0 out of order"),
    (genesis_then_blocks(first_height=1), "record 1: ValueError: height 1 out of order"),
    (genesis_then_blocks(first_height=3), "record 1: ValueError: height 3 out of order"),
], ids=["keys-not-a-list", "int-key", "duplicate-key", "bool-chunk", "float-chunk", "text-chunk",
        "zero-chunk", "negative-chunk", "no-chunk", "unknown-field", "genesis-second",
        "genesis-twice", "first-block-at-0", "first-block-inside-genesis",
        "first-block-after-a-gap"])
def test_load_block_log_names_the_file_and_the_bad_genesis_record(tmp_path, records, error):
    path = tmp_path / "blocks.log"
    write_record_file(path, records)
    with pytest.raises(LedgerError) as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: {error}")


def test_genesis_saves_as_record_0_and_loads_and_replays_as_one_record(tmp_path):
    config = PipelineConfig(mode=CRDT, max_tx_count=2)
    ws, log = WorldState(), BlockLog()
    populate_world_state(ws, log, config, ["Device0", "Device1", "Device2"])
    proposals = [Proposal("client1", i * 0.01, ()) for i in range(4)]
    cc = plain_chaincode(write_key="Device1", value=jbytes(TX1_DOC), is_crdt=True,
                         read_keys=("Device1",))
    report = run_pipeline(config, proposals, cc, ws=ws, log=log)
    assert [t.block_height for t in report.txs] == [2, 2, 3, 3]
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    record = b'{"chunk":2,"genesis":["Device0","Device1","Device2"]}'
    assert path.read_bytes()[:4 + len(record)] == struct.pack(">I", len(record)) + record
    loaded = load_block_log(path)
    assert loaded.genesis == Genesis(("Device0", "Device1", "Device2"), 2)
    assert loaded == list(log) and loaded.next_height == 4
    replayed_ws, replayed_log = replay_block_log(loaded)
    assert replayed_ws.canonical_bytes() == ws.canonical_bytes()
    assert replayed_log.genesis == log.genesis and replayed_log == list(log)


# Saved by `crdtsim run --mode crdt --txs 8 --conflict-pct 50 --block-size 3
# --seed 7 --save-blocklog` before the bootstrap became a genesis record: two
# bootstrap blocks of one transaction per key, then three run blocks.
PRE_GENESIS_LOG = Path(__file__).parent / "data" / "pre-genesis-crdt-txs8-seed7.blocklog"
PRE_GENESIS_DIGEST = "804fbf9753f1b79e6b6e70252b7adbeaf34488d1903cc6851ba15f14bb249380"


def test_a_log_saved_with_bootstrap_blocks_replays_to_its_digest():
    loaded = load_block_log(PRE_GENESIS_LOG)
    assert loaded.genesis is None
    assert [b.height for b in loaded] == [0, 1, 2, 3, 4]
    assert loaded[0].transactions[0].tx_id == "populate-000000"
    ws, _ = replay_block_log(loaded)
    assert ws.digest() == PRE_GENESIS_DIGEST
    outcome = run_single(PipelineConfig(mode=CRDT, max_tx_count=3),
                         WorkloadConfig(total_txs=8, conflict_pct=50.0, seed=7))
    assert outcome.ws.digest() == PRE_GENESIS_DIGEST


# Saved by `crdtsim run --mode crdt --txs 8 --conflict-pct 100 --block-size 4
# --seed 7 --save-blocklog` while every write held its value's base64 text:
# a genesis record, then two blocks of four equal merged writes each.
REPEATED_INLINE_LOG = Path(__file__).parent / "data" / "repeated-inline-crdt-hot-txs8-seed7.blocklog"
REPEATED_INLINE_DIGEST = "39820f4fe33fddf0003cdfffc4694f3583b5bce3fe2391404505f75ecddd59ff"


def test_a_log_with_repeated_inline_values_loads_as_the_log_with_references(tmp_path):
    old = load_block_log(REPEATED_INLINE_LOG)
    outcome = run_single(PipelineConfig(mode=CRDT, max_tx_count=4),
                         WorkloadConfig(total_txs=8, conflict_pct=100.0, seed=7))
    path = tmp_path / "blocks.log"
    save_block_log(outcome.log, path)
    assert path.stat().st_size < REPEATED_INLINE_LOG.stat().st_size
    new = load_block_log(path)
    assert old.genesis == new.genesis and old == new == list(outcome.log)
    assert [len({w.value for tx in b.transactions for w in tx.rwset.writes}) for b in old] == [1, 1]
    ws, _ = replay_block_log(old)
    assert ws.digest() == outcome.ws.digest() == REPEATED_INLINE_DIGEST


def test_failed_load_closes_the_record_file(tmp_path, monkeypatch):
    records = [block_record(Block(h, (), "count")) for h in range(3)]
    path = tmp_path / "blocks.log"
    write_record_file(path, [records[0], b"{", records[2]])
    read_record_file = txpipeline.read_record_file
    readers = []

    def reader(path):
        readers.append(read_record_file(path))
        return readers[-1]

    monkeypatch.setattr(txpipeline, "read_record_file", reader)
    with pytest.raises(LedgerError, match="record 1: JSONDecodeError"):
        load_block_log(path)
    (generator,) = readers
    assert generator.gi_frame is None  # finished, so its file is closed


def test_loaded_block_holds_one_object_per_equal_value_and_endorsement_list(tmp_path):
    config = PipelineConfig(mode=CRDT, max_tx_count=5)
    proposals = [Proposal("client1", i * 0.01, ()) for i in range(10)]
    log = BlockLog()
    run_pipeline(config, proposals, plain_chaincode(write_key="Device1", value=jbytes(TX1_DOC),
                                                    is_crdt=True), log=log)
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    loaded = load_block_log(path)
    assert loaded == list(log)
    for block in loaded:
        first = block.transactions[0]
        for tx in block.transactions:
            assert tx.rwset.writes[0].value is first.rwset.writes[0].value
            assert tx.endorsements is first.endorsements


def test_a_loaded_crdt_run_log_holds_one_write_per_merged_key_and_block_as_the_live_log(tmp_path):
    outcome = run_single(PipelineConfig(mode=CRDT, max_tx_count=25, snapshot_policy="batch"),
                         WorkloadConfig(total_txs=100, conflict_pct=100, seed=1))
    path = tmp_path / "blocks.log"
    save_block_log(outcome.log, path)
    loaded = load_block_log(path)
    assert list(loaded) == list(outcome.log)

    def merged_writes(log):
        return [w for block in log for tx, verdict in zip(block.transactions, block.validity)
                if verdict.valid for w in tx.rwset.writes if w.is_crdt]

    live, after_load = merged_writes(outcome.log), merged_writes(loaded)
    assert len(live) == len(after_load) == 100
    key_blocks = {(block.height, w.key) for block in outcome.log for tx in block.transactions
                  for w in tx.rwset.writes if w.is_crdt}
    assert len({id(w) for w in after_load}) == len({id(w) for w in live}) == len(key_blocks) == 4


def test_a_write_referring_back_under_another_key_or_flag_loads_its_own_write():
    block = Block(0, (make_tx("t1", writes=[Write("k", b"v", True)]),
                      make_tx("t2", writes=[Write("m", b"v", True)]),
                      make_tx("t3", writes=[Write("k", b"v", False)]),
                      make_tx("t4", writes=[Write("k", b"v", True)])),
                  "count", (TxVerdict(True, VALID),) * 4)
    record = block_record(block)
    assert record.count(b'"dg=="') == 1
    loaded = block_from_jsonable(json.loads(record))
    assert loaded == block
    first, other_key, other_flag, same = [tx.rwset.writes[0] for tx in loaded.transactions]
    assert same is first
    assert (other_key.key, other_key.is_crdt) == ("m", True) and other_key is not first
    assert (other_flag.key, other_flag.is_crdt) == ("k", False) and other_flag is not first
    assert other_key.value is other_flag.value is first.value


# t2's write of b"v" refers to t1's.
SHARING_BLOCK = Block(0, (make_tx("t1", writes=[Write("k", b"v", True)]),
                          make_tx("t2", writes=[Write("k", b"v", True)])),
                      "count", (TxVerdict(True, VALID),) * 2)


@pytest.mark.parametrize("old, new, error", [
    # 1 == True, but a flag of 1 writes back as true
    (b'["k",0,true]', b'["k",0,1]', NOT_WRITTEN),
    (b'["k",0,true]', b'[7,0,true]',
     "record 1: TypeError: transaction 1: first argument must be a string, not int"),
    (b'["k",0,true]', b'[["k"],0,true]', "record 1: TypeError: unhashable type: 'list'"),
], ids=["int-flag-of-a-referring-write", "int-key-of-a-referring-write",
        "list-key-of-a-referring-write"])
def test_load_block_log_rejects_a_damaged_referring_write_naming_the_record(
        tmp_path, old, new, error):
    records = [block_record(replace(SHARING_BLOCK, height=h)) for h in range(3)]
    assert records[1].count(old) == 1
    path = tmp_path / "blocks.log"
    write_record_file(path, damage_record_1(lambda record: replace_last(record, old, new))(records))
    with pytest.raises(LedgerError) as info:
        load_block_log(path)
    assert str(info.value).startswith(f"{path}: {error}")


def test_a_loaded_logs_keys_are_its_genesis_strings_across_records(tmp_path):
    pipeline = PipelineConfig(mode=CRDT, max_tx_count=10)
    outcome = run_single(pipeline, WorkloadConfig(total_txs=60, conflict_pct=50.0, n_read_keys=3,
                                                  n_write_keys=2, seed=1))
    path = tmp_path / "blocks.log"
    save_block_log(outcome.log, path)
    loaded = load_block_log(path)
    assert list(loaded) == list(outcome.log) and len(loaded) >= 6
    genesis = {key: key for key in loaded.genesis.keys}
    seen = Counter()
    for block in loaded:
        for tx in block.transactions:
            for item in tx.rwset.reads + tx.rwset.writes:
                assert item.key is genesis[item.key]
                seen[item.key] += 1
    assert max(seen.values()) > len(loaded)  # a hot key recurs across records


def test_a_loaded_log_without_a_genesis_shares_each_key_across_records(tmp_path):
    config = PipelineConfig(mode=FABRIC, max_tx_count=1)
    log = BlockLog()
    run_pipeline(config, [Proposal("client1", i * 0.01, ()) for i in range(3)],
                 plain_chaincode(write_key="device-w", read_keys=("device-r", "device-w")), log=log)
    path = tmp_path / "blocks.log"
    save_block_log(log, path)
    loaded = load_block_log(path)
    assert list(loaded) == list(log) and len(loaded) == 3
    rwsets = [block.transactions[0].rwset for block in loaded]
    for rwset in rwsets[1:]:
        assert rwset.reads[0].key is rwsets[0].reads[0].key == "device-r"
        assert rwset.reads[1].key is rwset.writes[0].key is rwsets[0].writes[0].key == "device-w"


def test_a_record_loads_each_distinct_endorsement_list_as_one_set():
    txs = tuple(make_tx(f"t{i}", orgs=orgs) for i, orgs in
                enumerate([("org1", "org2"), ("org2", "org1"), ("org3",), ("org1", "org2")]))
    shared = {}
    doc = json.loads(block_record(Block(0, txs, "count")))
    loaded = [transaction_from_jsonable(t, shared) for t in doc["transactions"]]
    assert loaded == list(txs)
    assert loaded[0].endorsements is loaded[1].endorsements is loaded[3].endorsements
    assert loaded[2].endorsements is not loaded[0].endorsements
    assert {key: value for key, value in shared.items() if type(key) is tuple} == {
        ("org1", "org2"): frozenset({"org1", "org2"}), ("org3",): frozenset({"org3"})}


def test_validator_and_loader_give_each_reason_one_verdict():
    block = Block(0, (make_tx("t1", writes=[Write("k", b"v")]),
                      make_tx("t2", reads=[Read("k", Version(5, 1))], writes=[Write("k", b"w")]),
                      make_tx("t3", writes=[Write("k", b"x")], orgs=("stranger",))), "count")
    vblock = validate_merge_block(block, WorldState(), FABRIC, ORGS)
    assert [v.reason for v in vblock.validity] == [VALID, INVALID_MVCC, INVALID_ENDORSEMENT]
    loaded = block_from_jsonable(json.loads(block_record(vblock)))
    for verdicts in (vblock.validity, loaded.validity):
        assert all(v is txpipeline.VERDICTS[v.reason] for v in verdicts)
    assert set(txpipeline.VERDICTS) == {VALID, *txpipeline.INVALID_REASONS}
    assert all(v.valid is (reason == VALID) for reason, v in txpipeline.VERDICTS.items())


def test_load_block_log_memory_is_bounded_by_one_record_and_the_distinct_values(tmp_path):
    # 20 records of 25 equal 20 KB writes: 10 MB decoded one by one, 13.6 MB
    # if every write held its text and every record were held at once;
    # streamed, with each record holding its value once, the distinct values
    # take 0.4 MB and one record about 27 KB.
    value = bytes(range(256)) * 80
    txs = tuple(make_tx(f"t{i}", writes=[Write("k", value, True)]) for i in range(25))
    path = tmp_path / "blocks.log"
    save_block_log([Block(h, txs, "count", (TxVerdict(True, VALID),) * 25) for h in range(20)], path)
    tracemalloc.start()
    try:
        blocks = load_block_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blocks) == 20 and blocks[19].transactions[24].rwset.writes[0].value == value
    assert peak < 4 << 20
