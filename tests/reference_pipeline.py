"""One plain, executable reference per rule of the simulator, and the
reference pipeline built from them (Fabric's execute-order-validate,
arXiv:1801.10228): every test module's oracle, as Gomes et al. check a CRDT
against an executable specification (arXiv:1707.01747). Documents are
copied, never changed in place; every transaction is sized exactly; each
key's document is rebuilt from empty for each block; MVCC reads a dict."""

import base64
import hashlib
import json
import math
import random
import struct
from collections import Counter

from crdtsim.jsoncrdt import DocumentShapeError, StructuralConflictError
from crdtsim.ledger import Version
from crdtsim.txpipeline import (CRDT, INVALID_DECODE, INVALID_ENDORSEMENT, INVALID_MVCC,
                                INVALID_STRUCTURAL, PROPOSAL_FAILURE, READ_ONLY, VALID, VERDICTS,
                                Block, ReadWriteSet, Transaction, Write)

# The orgs that endorse every transaction of a reference run.
ORGS = frozenset({"org1", "org2", "org3"})


def reference_json_bytes(value) -> bytes:
    """Canonical JSON: sorted map keys, compact separators, UTF-8."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def reference_pruned_copy(value) -> tuple:
    """(value without containers that hold no text leaf, its number of text
    leaves), or DocumentShapeError at the first value, in document order,
    that is not a text leaf, a list, or a map from non-empty text keys. Each
    container copies every child first, then keeps those holding a leaf."""
    if isinstance(value, str):
        return value, 1
    if isinstance(value, list):
        pairs = [reference_pruned_copy(item) for item in value]
        return [copy for copy, count in pairs if count], sum(count for _, count in pairs)
    if not isinstance(value, dict):
        raise DocumentShapeError(f"unsupported leaf {value!r}; encode scalars as text")
    pairs = {}
    for key, item in value.items():
        if not (isinstance(key, str) and key):
            raise DocumentShapeError("map keys must be non-empty" if key == ""
                                     else f"map key {key!r} is not text")
        pairs[key] = reference_pruned_copy(item)
    return ({key: copy for key, (copy, count) in pairs.items() if count},
            sum(count for _, count in pairs.values()))


def _kind(value) -> str:
    return "leaf" if isinstance(value, str) else "list" if isinstance(value, list) else "map"


def reference_union(held: dict, doc: dict) -> dict:
    """A new map: held with doc merged in, maps per key, lists concatenated,
    a leaf taking doc's value. Two kinds under one key raise
    StructuralConflictError at the first such key, depth first in doc order."""
    out = dict(held)
    for key, value in doc.items():
        old = out.get(key, value)  # a new key's value meets only itself
        if _kind(old) != _kind(value):
            raise StructuralConflictError(f"node {key!r} is a {_kind(old)}, insert expects a {_kind(value)}")
        if key in out and not isinstance(value, str):
            value = reference_union(old, value) if isinstance(value, dict) else old + value
        out[key] = value
    return out


def reference_merge(held: dict, doc) -> dict:
    """The map held with doc merged in, or the error a merge raises: doc's
    first shape error, then a top-level value that is not a map, then a kind
    conflict."""
    copy, _ = reference_pruned_copy(doc)
    if not isinstance(doc, dict):
        raise DocumentShapeError("top-level document must be a map")
    return reference_union(held, copy)


def reference_leaf_multisets(doc) -> dict:
    """The multiset of text leaves at each path of doc; a list level is "[]"."""
    if isinstance(doc, str):
        return {(): Counter([doc])}
    found: dict = {}
    for key, item in doc.items() if isinstance(doc, dict) else (("[]", item) for item in doc):
        for path, leaves in reference_leaf_multisets(item).items():
            found.setdefault((key, *path), Counter()).update(leaves)
    return found


def reference_readings(config) -> list:
    """Each proposal's reading as a fresh document: the rng draws the
    conflicting proposals first, then one randint(0, 40) per room, in room
    order; a room's chain holds max(2, json_depth) named keys."""
    rng = random.Random(config.seed)
    rng.sample(range(config.total_txs), round(config.total_txs * config.conflict_pct / 100.0))

    def room():
        inner = {"temperatureValue": str(rng.randint(0, 40))}
        for _ in range(max(2, config.json_depth) - 2):
            inner = {"temperatureReading": [inner]}
        return [inner]
    return [{f"temperatureRoom{i}": room() for i in range(1, config.json_keys + 1)}
            for _ in range(config.total_txs)]


def reference_transaction_jsonable(tx) -> dict:
    """tx's stand-alone record as a dict, every write value inline."""
    return {"tx_id": tx.tx_id, "submit_time": tx.submit_time, "endorsements": sorted(tx.endorsements),
            "reads": [[r.key, None if r.version is None else [r.version.block_height, r.version.tx_index]]
                      for r in tx.rwset.reads],
            "writes": [[w.key, base64.b64encode(w.value).decode("ascii"), w.is_crdt]
                       for w in tx.rwset.writes]}


def reference_block_jsonable(block) -> dict:
    """block's record as a dict: every write of a value equal to an earlier
    one of the block, in transaction then write order, holds the index of
    that value among the first ones instead."""
    transactions = [reference_transaction_jsonable(tx) for tx in block.transactions]
    first: list = []
    for tx, jsonable in zip(block.transactions, transactions):
        for write, written in zip(tx.rwset.writes, jsonable["writes"]):
            if write.value in first:
                written[1] = first.index(write.value)
            else:
                first.append(write.value)
    return {"height": block.height, "cut_reason": block.cut_reason, "transactions": transactions,
            "validity": [[v.valid, v.reason] for v in block.validity]}


def reference_log_bytes(genesis_keys, chunk: int, blocks) -> bytes:
    """A saved log: the genesis record, then one per block, each its canonical
    JSON after its length as 4 bytes big-endian."""
    records = [reference_json_bytes({"chunk": chunk, "genesis": list(genesis_keys)})]
    records += [reference_json_bytes(reference_block_jsonable(block)) for block in blocks]
    return b"".join(struct.pack(">I", len(record)) + record for record in records)


class State(dict):
    """World state: key -> (value bytes, Version); a chaincode's snapshot."""

    get_state = dict.get


def reference_state_bytes(state: dict) -> bytes:
    """{key: [base64 value, height, index]} as canonical JSON."""
    return reference_json_bytes({key: [base64.b64encode(value).decode("ascii"), v.block_height, v.tx_index]
                                 for key, (value, v) in state.items()})


def reference_digest(state: dict) -> str:
    return hashlib.sha256(reference_state_bytes(state)).hexdigest()


class ExactSizeOrderer:
    """FIFO orderer sizing each transaction exactly at submit. A block cuts,
    checked in this order: at max_tx_count transactions; once the queue holds
    max_bytes, as the longest prefix within max_bytes (at least one); at the
    oldest transaction's submit time plus timeout_s."""

    def __init__(self, max_tx_count: int, max_bytes: int, timeout_s: float, first_height: int = 0):
        self.max_tx_count, self.max_bytes, self.timeout_s = max_tx_count, max_bytes, timeout_s
        self.next_height = first_height
        self.queue: list = []  # (tx, encoded size)

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def timeout_deadline(self):
        return self.queue[0][0].submit_time + self.timeout_s if self.queue else None

    def submit(self, tx) -> None:
        self.queue.append((tx, len(reference_json_bytes(reference_transaction_jsonable(tx)))))

    def cut_block(self, now: float):
        sizes = [size for _, size in self.queue]
        if len(sizes) >= self.max_tx_count:
            count, reason = self.max_tx_count, "count"
        elif sizes and sum(sizes) >= self.max_bytes:
            count = max(n for n in range(1, len(sizes) + 1) if n == 1 or sum(sizes[:n]) <= self.max_bytes)
            reason = "bytes"
        elif sizes and now >= self.timeout_deadline:
            count, reason = len(sizes), "timeout"
        else:
            return None
        block = Block(self.next_height, tuple(tx for tx, _ in self.queue[:count]), reason)
        del self.queue[:count]
        self.next_height += 1
        return block


def reference_validate_block(block, state: dict, mode: str, orgs) -> Block:
    """The block with its verdicts. In block order, a transaction must name
    one of orgs; in crdt mode each CRDT write must merge into its key's
    document as merged, from empty, by the block's earlier valid writes; then
    each read not of its own CRDT keys, unless every write is CRDT, must see
    the version (None if absent) in state overlaid with the block's earlier
    valid writes. Valid CRDT writes then carry their key's final document."""
    versions = {key: version for key, (_, version) in state.items()}
    docs: dict = {}
    verdicts = []
    for i, tx in enumerate(block.transactions):
        writes = tx.rwset.writes
        crdt = [w for w in writes if w.is_crdt] if mode == CRDT else []
        reason = None if set(tx.endorsements) & set(orgs) else INVALID_ENDORSEMENT
        merged = {}
        for w in crdt if reason is None else ():
            try:
                merged[w.key] = reference_merge(docs.get(w.key, {}), json.loads(w.value.decode("utf-8")))
            except StructuralConflictError:
                reason = INVALID_STRUCTURAL
                break
            except (DocumentShapeError, ValueError):  # ValueError: not UTF-8, or not JSON
                reason = INVALID_DECODE
                break
        if reason is None:
            exempt = {w.key for w in crdt}
            if (writes and len(crdt) == len(writes)) or all(
                    versions.get(r.key) == r.version for r in tx.rwset.reads if r.key not in exempt):
                reason = VALID
                docs.update(merged)
                versions.update((w.key, Version(block.height, i)) for w in writes)
            else:
                reason = INVALID_MVCC
        verdicts.append(VERDICTS[reason])
    txs = tuple(Transaction(tx.tx_id, ReadWriteSet(tx.rwset.reads, tuple(
                    Write(w.key, reference_json_bytes(docs[w.key]), True) if w.is_crdt else w
                    for w in tx.rwset.writes)), tx.endorsements, tx.submit_time)
                if verdict.valid and mode == CRDT else tx
                for tx, verdict in zip(block.transactions, verdicts))
    return Block(block.height, txs, block.cut_reason, tuple(verdicts))


def reference_commit(state: dict, block) -> None:
    """Put each valid transaction's writes into state at (height, tx index)."""
    for i, (tx, verdict) in enumerate(zip(block.transactions, block.validity)):
        for w in tx.rwset.writes if verdict.valid else ():
            state[w.key] = (w.value, Version(block.height, i))


def reference_genesis(keys, chunk: int) -> State:
    """Key i holds its device skeleton at Version(i // chunk, i % chunk)."""
    return State({key: (reference_json_bytes({"deviceID": key}), Version(i // chunk, i % chunk))
                  for i, key in enumerate(keys)})


def reference_run(config, proposals, chaincode, genesis_keys=()) -> tuple:
    """Run proposals in submit-time order from a genesis of genesis_keys, the
    chaincode reading the state of the run's start (batch) or the live one
    (fresh). Blocks cut after each submit and at each timeout deadline, and
    commit at their cut time. Return ([(tx id, verdict, height, commit
    time)], [validated blocks], saved-log bytes, state digest)."""
    chunk = config.max_tx_count
    state = reference_genesis(genesis_keys, chunk)
    snapshot = State(state) if config.snapshot_policy == "batch" else state
    orderer = ExactSizeOrderer(chunk, config.max_bytes, config.block_timeout_ms / 1000.0,
                               -(-len(genesis_keys) // chunk))
    outcomes: dict = {}  # tx id -> (verdict, height, commit time), in proposal order
    blocks: list = []

    def settle(block, now):
        block = reference_validate_block(block, state, config.mode, ORGS)
        reference_commit(state, block)
        blocks.append(block)
        for tx, verdict in zip(block.transactions, block.validity):
            outcomes[tx.tx_id] = (verdict.reason, block.height, now)

    def fire_timeouts(up_to):
        while orderer.queue and (deadline := orderer.timeout_deadline) <= up_to:
            settle(orderer.cut_block(deadline), deadline)

    for counter, prop in enumerate(sorted(proposals, key=lambda p: p.submit_time)):
        now = prop.submit_time
        fire_timeouts(now)
        tx_id = f"{prop.client_id}-{counter:06d}"
        try:
            rwset = chaincode.fn(prop.args, snapshot)
        except Exception:
            rwset = None
        outcomes[tx_id] = (PROPOSAL_FAILURE if rwset is None else READ_ONLY, None, None)  # unless ordered
        if rwset is not None and rwset.writes:
            orderer.submit(Transaction(tx_id, rwset, ORGS, now))
            while (block := orderer.cut_block(now)) is not None:
                settle(block, now)
    fire_timeouts(math.inf)
    return ([(tx_id, *outcome) for tx_id, outcome in outcomes.items()], blocks,
            reference_log_bytes(genesis_keys, chunk, blocks), reference_digest(state))
