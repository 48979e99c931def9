import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crdtsim
from crdtsim.ledger import (
    DIGEST_BATCH,
    BlockLog,
    Genesis,
    LedgerError,
    OrderingViolationError,
    Version,
    WorldState,
    commit_block,
    device_skeleton_bytes,
    install_genesis,
    read_record_file,
    write_record_file,
)
from crdtsim.txpipeline import (
    Block,
    ReadWriteSet,
    Transaction,
    TxVerdict,
    Write,
)
from reference_pipeline import reference_digest, reference_json_bytes, reference_state_bytes


def make_tx(tx_id, reads=(), writes=(), orgs=("org1",)):
    return Transaction(
        tx_id=tx_id,
        rwset=ReadWriteSet(reads=tuple(reads), writes=tuple(writes)),
        endorsements=frozenset(orgs),
        submit_time=0.0,
    )


def make_validated(height, txs, verdicts, cut_reason="count"):
    return Block(
        height=height,
        transactions=tuple(txs),
        cut_reason=cut_reason,
        validity=tuple(verdicts),
    )


# ----------------------------------------------------------------------
# versions


def test_versions_order_by_height_then_tx_index():
    assert Version(0, 5) < Version(1, 0)
    assert Version(1, 0) < Version(1, 1)
    assert Version(2, 3) == Version(2, 3)
    assert sorted([Version(1, 1), Version(0, 9), Version(1, 0)]) == [
        Version(0, 9), Version(1, 0), Version(1, 1)]


def test_version_is_hashable_and_frozen():
    versions = {Version(0, 0), Version(0, 0), Version(0, 1)}
    assert len(versions) == 2
    with pytest.raises(AttributeError):
        Version(0, 0).block_height = 3


# ----------------------------------------------------------------------
# world state and snapshots


def test_empty_world_state_reads_none():
    ws = WorldState()
    assert ws.get_state("missing") is None


def test_snapshot_is_isolated_from_later_commits():
    ws = WorldState()
    log = BlockLog()
    tx = make_tx("t0", writes=[Write("k", b"v0")])
    commit_block(ws, log, make_validated(0, [tx], [TxVerdict(True, None)]))
    snap = ws.snapshot()
    assert type(snap) is WorldState  # the chaincode reads one type under both policies
    assert snap.get_state("k") == (b"v0", Version(0, 0))

    tx2 = make_tx("t1", writes=[Write("k", b"v1")])
    commit_block(ws, log, make_validated(1, [tx2], [TxVerdict(True, None)]))
    assert snap.get_state("k") == (b"v0", Version(0, 0))
    assert ws.get_state("k") == (b"v1", Version(1, 0))


def test_snapshot_lists_keys():
    ws = WorldState()
    log = BlockLog()
    tx = make_tx("t0", writes=[Write("a", b"1"), Write("b", b"2")])
    commit_block(ws, log, make_validated(0, [tx], [TxVerdict(True, None)]))
    assert set(ws.snapshot().keys()) == {"a", "b"}


def test_commit_skips_invalid_transactions():
    ws = WorldState()
    log = BlockLog()
    good = make_tx("good", writes=[Write("a", b"1")])
    bad = make_tx("bad", writes=[Write("b", b"2")])
    block = make_validated(0, [good, bad], [TxVerdict(True, None), TxVerdict(False, "mvcc")])
    assert commit_block(ws, log, block) is None
    assert ws.get_state("a") == (b"1", Version(0, 0))
    assert ws.get_state("b") is None
    assert list(ws.keys()) == ["a"]
    assert list(log) == [block]  # the invalid transaction stays in the logged block


def test_commit_versions_use_position_within_block():
    ws = WorldState()
    log = BlockLog()
    invalid = make_tx("t0", writes=[Write("x", b"0")])
    valid = make_tx("t1", writes=[Write("k", b"v")])
    commit_block(ws, log, make_validated(
        0, [invalid, valid], [TxVerdict(False, "mvcc"), TxVerdict(True, None)]))
    assert ws.get_state("k") == (b"v", Version(0, 1))


def test_a_transactions_writes_share_one_version_in_the_state():
    ws = WorldState()
    t0 = make_tx("t0", writes=[Write("a", b"1"), Write("b", b"2")])
    t1 = make_tx("t1", writes=[Write("c", b"3")])
    commit_block(ws, BlockLog(), make_validated(
        0, [t0, t1], [TxVerdict(True, None), TxVerdict(True, None)]))
    assert ws.get_state("a")[1] is ws.get_state("b")[1] == Version(0, 0)
    assert ws.get_state("c")[1] == Version(0, 1)


def test_later_write_in_same_block_wins():
    ws = WorldState()
    log = BlockLog()
    t0 = make_tx("t0", writes=[Write("k", b"first")])
    t1 = make_tx("t1", writes=[Write("k", b"second")])
    commit_block(ws, log, make_validated(
        0, [t0, t1], [TxVerdict(True, None), TxVerdict(True, None)]))
    assert ws.get_state("k") == (b"second", Version(0, 1))


def test_world_state_rejects_non_increasing_versions():
    ws = WorldState()
    ws._put("k", b"v", Version(3, 0))
    with pytest.raises(LedgerError):
        ws._put("k", b"w", Version(3, 0))
    with pytest.raises(LedgerError):
        ws._put("k", b"w", Version(2, 9))


# ----------------------------------------------------------------------
# block log


def test_block_log_appends_contiguously():
    log = BlockLog()
    log.append(make_validated(0, [], []))
    log.append(make_validated(1, [], []))
    assert len(log) == 2
    assert log[1].height == 1


def test_commit_block_height_must_match_log():
    ws = WorldState()
    log = BlockLog()
    with pytest.raises(OrderingViolationError):
        commit_block(ws, log, make_validated(4, [], []))
    tx = make_tx("t0", writes=[Write("k", b"v0")])
    commit_block(ws, log, make_validated(0, [tx], [TxVerdict(True, None)]))
    digest = ws.digest()
    for height in (0, 2):  # a repeat, then a gap; neither may write anything
        later = make_tx(f"t{height}", writes=[Write("k", b"late")])
        with pytest.raises(OrderingViolationError):
            commit_block(ws, log, make_validated(height, [later], [TxVerdict(True, None)]))
        assert ws.digest() == digest
        assert len(log) == 1


def test_blocks_after_a_genesis_start_at_its_height_count():
    ws, log = WorldState(), BlockLog()
    install_genesis(ws, log, Genesis(("a", "b", "c"), 2))
    assert ws.get_state("a") == (b'{"deviceID":"a"}', Version(0, 0))
    assert ws.get_state("c") == (b'{"deviceID":"c"}', Version(1, 0))
    assert len(log) == 0 and log.next_height == 2
    with pytest.raises(OrderingViolationError):
        commit_block(ws, log, make_validated(0, [], []))
    commit_block(ws, log, make_validated(2, [], []))
    assert log.next_height == 3
    with pytest.raises(LedgerError, match="empty block log"):
        install_genesis(WorldState(), log, Genesis(("d",), 2))


def test_commit_of_an_unvalidated_block_fails_and_changes_nothing():
    ws = WorldState()
    log = BlockLog()
    first = make_validated(0, [make_tx("t0", writes=[Write("k", b"v0")])], [TxVerdict(True, None)])
    commit_block(ws, log, first)
    digest = ws.digest()
    unvalidated = Block(1, (make_tx("t1", writes=[Write("k", b"v1")]),), "count")
    with pytest.raises(LedgerError, match="block 1: 0 verdicts for 1 transactions"):
        commit_block(ws, log, unvalidated)
    assert ws.digest() == digest
    assert list(log) == [first]


# ----------------------------------------------------------------------
# digests and record files


def test_digest_is_sha256_of_canonical_state():
    ws = WorldState()
    log = BlockLog()
    tx = make_tx("t0", writes=[Write("k", b"v")])
    commit_block(ws, log, make_validated(0, [tx], [TxVerdict(True, None)]))
    expected = hashlib.sha256(ws.canonical_bytes()).hexdigest()
    assert ws.digest() == expected
    assert len(ws.digest()) == 64


FALLBACK_DIGEST = """
import hashlib, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # as on a build with neither
from crdtsim import ledger
from crdtsim.cli import main
assert ledger.sha256 is hashlib.sha256
ws = ledger.WorldState()
for i in range(3 * ledger.DIGEST_BATCH):
    ws._put(f"k{i}", bytes([i % 256]) * i, ledger.Version(0, i))
assert ws.digest() == hashlib.sha256(ws.canonical_bytes()).hexdigest()
main(["run", "--mode", "crdt", "--txs", "8", "--conflict-pct", "100", "--seed", "7"])
"""


def test_digest_falls_back_to_hashlib_without_a_builtin_sha256():
    src = str(Path(crdtsim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", FALLBACK_DIGEST],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    # README's run example.
    assert out.splitlines()[-1] == \
        "digest,a9d13fb113736cceb31762b8007feac36cc3eac04adb09531b5e75bc6cacc5ee"


def test_digest_changes_with_state():
    ws = WorldState()
    log = BlockLog()
    empty = ws.digest()
    tx = make_tx("t0", writes=[Write("k", b"v")])
    commit_block(ws, log, make_validated(0, [tx], [TxVerdict(True, None)]))
    assert ws.digest() != empty


def test_digest_covers_binary_values():
    ws = WorldState()
    ws._put("k", bytes([0, 255, 128, 10]), Version(0, 0))
    assert ws.digest()  # non-UTF8 payloads must still hash cleanly


def test_equal_states_share_a_digest():
    first = WorldState()
    second = WorldState()
    for ws in (first, second):
        ws._put("b", b"2", Version(0, 1))
        ws._put("a", b"1", Version(0, 0))
    assert first.digest() == second.digest()
    assert first.canonical_bytes() == reference_json_bytes(
        {"a": ["MQ==", 0, 0], "b": ["Mg==", 0, 1]})


def state_of(entries):
    ws = WorldState()
    for key, (value, height, index) in entries.items():
        ws._put(key, value, Version(height, index))
    return ws


# Text the canonical encoder escapes (quote, backslash, control characters),
# passes raw (U+2028, non-ASCII, astral) or both, beside arbitrary text.
KEYS = (st.text(alphabet=st.sampled_from('"\\\x00\x1f\n\u2028\x7f/é€😀a'), max_size=12)
        | st.text(max_size=8))
BIG_INTS = st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.integers()
ENTRIES = st.dictionaries(KEYS, st.tuples(st.binary(max_size=24), BIG_INTS, BIG_INTS), max_size=8)


@settings(max_examples=500)
@given(ENTRIES)
@example({})
@example({"": (b"", 0, 0)})
@example({"b": (b"\xff\xfe", -2 ** 70, 2 ** 70), "a": (b"\x00", 0, -1), "é": (b"v" * 7, 1, 2)})
@example({"\x00\"\\\n\u2028😀": (bytes(range(256)), 3, 4)})
def test_property_state_bytes_equal_the_generic_encoders(entries):
    ws = state_of(entries)
    assert ws.canonical_bytes() == reference_state_bytes(ws._entries)


# Filler entries that put the state's pieces ("{", one per entry, "}") on
# both sides of one and two digest batches, beside the drawn entries.
FILLERS = st.sampled_from([0, 1, *range(DIGEST_BATCH - 10, DIGEST_BATCH + 3),
                           *range(2 * DIGEST_BATCH - 10, 2 * DIGEST_BATCH + 3)])


@settings(max_examples=300)
@given(ENTRIES, FILLERS)
@example({}, 0)
@example({"": (b"", 0, 0)}, 0)
@example({}, DIGEST_BATCH - 3)  # pieces: one batch but one
@example({}, DIGEST_BATCH - 2)  # exactly one batch
@example({}, DIGEST_BATCH - 1)  # "}" alone in the second batch
@example({"\x00\"\\\n\u2028😀": (b"\xff\xfe", 3, 4)}, 2 * DIGEST_BATCH - 3)
def test_property_digest_is_sha256_of_canonical_bytes(entries, filler):
    ws = state_of({**{f"filler{i:03d}": (bytes([i % 256]) * (i % 5), i, 0) for i in range(filler)},
                   **entries})
    assert ws.digest() == hashlib.sha256(ws.canonical_bytes()).hexdigest()
    assert ws.digest() == reference_digest(ws._entries)


def test_digest_holds_one_batch_of_a_large_state_not_all_of_it():
    # 4,000 entries of 1 KB: about 5.5 MB of canonical bytes, which a digest
    # of the joined state would hold at least twice over (text and bytes).
    ws = state_of({f"device{i:05d}": (bytes([i % 256]) * 1024, i, 0) for i in range(4000)})
    size = len(ws.canonical_bytes())
    expected = hashlib.sha256(ws.canonical_bytes()).hexdigest()
    tracemalloc.start()
    try:
        digest = ws.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == expected
    assert size > 5 << 20
    assert peak < size // 10


@settings(max_examples=300)
@given(KEYS)
@example("")
@example('"\\\x00\x1f\u2028é😀')
def test_property_skeleton_bytes_equal_the_generic_encoders(key):
    assert device_skeleton_bytes(key) == reference_json_bytes({"deviceID": key})


@pytest.mark.parametrize("key", ["\ud800", "a\udfffb", "😀\udc00"])
def test_lone_surrogate_key_fails_the_direct_writers_as_it_fails_the_encoder(key):
    ws = state_of({"a": (b"v", 0, 0), key: (b"", 1, 0)})
    with pytest.raises(UnicodeEncodeError):
        reference_state_bytes(ws._entries)
    with pytest.raises(UnicodeEncodeError):
        ws.canonical_bytes()
    with pytest.raises(UnicodeEncodeError):
        ws.digest()
    with pytest.raises(UnicodeEncodeError):
        reference_json_bytes({"deviceID": key})
    with pytest.raises(UnicodeEncodeError):
        device_skeleton_bytes(key)


def test_record_file_round_trips_frames(tmp_path):
    path = tmp_path / "records.bin"
    frames = [b"", b"abc", bytes(range(256)), b"x" * 70000]
    write_record_file(path, frames)
    assert list(read_record_file(path)) == frames


def test_record_file_rejects_truncation(tmp_path):
    path = tmp_path / "records.bin"
    write_record_file(path, [b"abc", b"defgh"])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(LedgerError) as info:
        list(read_record_file(path))
    assert str(info.value) == f"{path}: record 1 at byte 7: truncated body (3 of 5 bytes)"


def test_record_file_rejects_a_truncated_header(tmp_path):
    path = tmp_path / "records.bin"
    write_record_file(path, [b"abc", b"defgh"])
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(LedgerError) as info:
        list(read_record_file(path))
    assert str(info.value) == f"{path}: record 2 at byte 16: truncated header (2 of 4 bytes)"


def test_record_file_bounds_a_claimed_length_by_the_bytes_left(tmp_path):
    # Record 1's header claims 64 MB; only 3 bytes follow it.
    path = tmp_path / "records.bin"
    write_record_file(path, [b"abc"])
    path.write_bytes(path.read_bytes() + struct.pack(">I", 64 << 20) + b"xyz")
    tracemalloc.start()
    try:
        with pytest.raises(LedgerError) as info:
            list(read_record_file(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: record 1 at byte 7: truncated body (3 of {64 << 20} bytes)"
    assert peak < 1 << 20


def test_record_file_yields_the_records_before_a_truncated_one(tmp_path):
    path = tmp_path / "records.bin"
    write_record_file(path, [b"abc", b"defgh"])
    path.write_bytes(path.read_bytes()[:-2])
    records = read_record_file(path)
    assert next(records) == b"abc"
    with pytest.raises(LedgerError, match="record 1 at byte 7: truncated body"):
        next(records)

