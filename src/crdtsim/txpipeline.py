"""Execute-order-validate transaction pipeline with two validation modes.

Proposals are simulated against a state snapshot to produce read-write sets,
endorsed by every configured organization, totally ordered and batched into
blocks (count, byte, and timeout cuts), then validated and committed.
Validation first checks that each transaction's endorsements name at least
one configured org.
In fabric mode every transaction passes multi-version concurrency control:
each read's version must match the committed state overlaid with the writes
of preceding valid transactions of the same block. In crdt mode writes
flagged as CRDT values are merged per key into a fresh JSON CRDT in block
order (a transaction's CRDT writes merge together, or none of them does),
MVCC applies only to non-CRDT content, and only a valid transaction's CRDT
writes are rewritten, to their key's merged canonical bytes, so a key's valid
writes in a block share one value; every other write stays as submitted.
Validation fills in a block's verdicts, one per transaction.

Time is simulated: submit times come from the workload, block timeouts and
latency accounting run on the same clock, and nothing here reads the wall
clock, so every output is a function of the inputs. The block log is the one
per-block record of a run.
"""

from __future__ import annotations

import json
import math
from binascii import a2b_base64, b2a_base64
from contextlib import closing
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Callable, Iterable, Optional

from .jsoncrdt import (
    DocumentShapeError,
    StructuralConflictError,
    canonical_json_bytes,
    init_empty_crdt,
    parse_json_bytes,
)
from .ledger import (
    BlockLog,
    Genesis,
    LedgerError,
    Version,
    WorldState,
    commit_block,
    install_genesis,
    read_record_file,
    write_record_file,
)

FABRIC = "fabric"
CRDT = "crdt"

VALID = "valid"
INVALID_MVCC = "mvcc"
INVALID_ENDORSEMENT = "endorsement"
INVALID_DECODE = "decode"
INVALID_STRUCTURAL = "structural"
# Outcomes of proposals that never form a transaction.
PROPOSAL_FAILURE = "proposal_failure"  # the chaincode raised
READ_ONLY = "read_only"

# Verdicts of transactions that reached a block but must not commit.
INVALID_REASONS = (INVALID_MVCC, INVALID_ENDORSEMENT, INVALID_DECODE, INVALID_STRUCTURAL)

CUT_REASONS = ("count", "bytes", "timeout")


class PipelineError(Exception):
    pass


class DuplicateTransactionError(PipelineError):
    pass


# ----------------------------------------------------------------------
# domain types


@dataclass(frozen=True, slots=True)
class Read:
    key: str
    version: Optional[Version]  # None records a read of an absent key


@dataclass(frozen=True, slots=True)
class Write:
    key: str
    value: bytes
    is_crdt: bool = False


@dataclass(frozen=True, slots=True)
class ReadWriteSet:
    reads: tuple = ()
    writes: tuple = ()

    def __post_init__(self):
        if len({r.key for r in self.reads}) != len(self.reads):
            raise ValueError("duplicate keys in read set")
        if len({w.key for w in self.writes}) != len(self.writes):
            raise ValueError("duplicate keys in write set")


@dataclass(frozen=True, slots=True)
class Transaction:
    tx_id: str
    rwset: ReadWriteSet
    endorsements: frozenset
    submit_time: float


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    transactions: tuple
    cut_reason: str  # count | bytes | timeout
    validity: tuple = ()  # one TxVerdict per transaction once validated


@dataclass(frozen=True, slots=True)
class TxVerdict:
    valid: bool
    reason: str


# The one verdict of each reason, shared by the validator and the loader.
VERDICTS = {reason: TxVerdict(reason == VALID, reason) for reason in (VALID,) + INVALID_REASONS}


@dataclass(frozen=True, slots=True)
class ChaincodeSpec:
    """A named deterministic function from (args, snapshot) to a ReadWriteSet."""

    name: str
    fn: Callable


@dataclass(frozen=True, slots=True)
class Proposal:
    client_id: str
    submit_time: float
    args: tuple


@dataclass
class PipelineConfig:
    mode: str = CRDT
    max_tx_count: int = 25
    max_bytes: int = 128 * 1024 * 1024
    block_timeout_ms: float = 2000.0
    orgs: tuple = ("org1", "org2", "org3")
    snapshot_policy: str = "batch"  # batch | fresh

    def validate(self) -> None:
        if self.mode not in (FABRIC, CRDT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.snapshot_policy not in ("batch", "fresh"):
            raise ValueError(f"unknown snapshot policy {self.snapshot_policy!r}")
        for name in ("max_tx_count", "max_bytes", "block_timeout_ms"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be {'positive' if value <= 0 else 'finite'}, not {value!r}")
        try:
            float(self.block_timeout_ms)  # run_pipeline divides it by 1000.0
        except OverflowError:
            # The value itself is not echoed: it has hundreds of digits.
            raise ValueError("block_timeout_ms is too large: it does not fit a float") from None
        try:
            for org in self.orgs:
                org.encode("utf-8")  # every saved block lists them
        except (AttributeError, UnicodeEncodeError):
            raise ValueError(f"orgs must be UTF-8 text, not {self.orgs!r}") from None
        if not self.orgs:
            raise ValueError("orgs must name at least one org to endorse proposals")


# ----------------------------------------------------------------------
# ordering phase


def transaction_encoded_size(tx: Transaction) -> int:
    """The length of tx's stand-alone record, every write value inline: the
    envelope as ordered, which a block record may shorten by referring back
    to an equal value earlier in the block."""
    pieces: list = []
    _write_transaction(tx, pieces, None, {})
    return sum(map(len, pieces))


# Bytes of the canonical record (_write_transaction) that no field
# length changes, with one separating comma per list element. A text field
# takes at most 6 bytes per character (a \uXXXX escape; raw UTF-8 takes at
# most 4) beside these quotes.
_TX_FIXED = len('{"endorsements":[],"reads":[],"submit_time":,"tx_id":"","writes":[]}')
_ORG_FIXED = len('"",')
_READ_FIXED = len('["",null],')  # a version [h,i] adds at most its two ints
_WRITE_FIXED = len('["","",false],')
# The longest float repr, longer than NaN, Infinity and -Infinity.
_FLOAT_MAX = len("-1.2345678901234567e-308")


def _int_bound(n: int) -> int:
    """An upper bound on len(str(n)): a sign and at most bits / 3 digits."""
    return n.bit_length() // 3 + 2


def _size_bound(tx: Transaction) -> int:
    """An upper bound on transaction_encoded_size(tx) from field lengths
    alone, for the field types the dataclasses declare (a float submit time)."""
    size = _TX_FIXED + _FLOAT_MAX + 6 * len(tx.tx_id)
    for org in tx.endorsements:
        size += _ORG_FIXED + 6 * len(org)
    for read in tx.rwset.reads:
        size += _READ_FIXED + 6 * len(read.key)
        if read.version is not None:
            size += _int_bound(read.version.block_height) + _int_bound(read.version.tx_index)
    for write in tx.rwset.writes:
        size += _WRITE_FIXED + 6 * len(write.key) + 4 * ((len(write.value) + 2) // 3)
    return size


class Orderer:
    """Deterministic FIFO orderer cutting blocks by count, bytes, or timeout.

    A transaction is sized exactly only once the queue's bounded size
    reaches max_bytes, so a byte cut is possible; each is sized at most once.
    """

    def __init__(self, max_tx_count: int, max_bytes: int, timeout_s: float, first_height: int = 0):
        self.max_tx_count = max_tx_count
        self.max_bytes = max_bytes
        self.timeout_s = timeout_s
        self.next_height = first_height
        # (tx, size), enqueued at tx.submit_time. The size is the encoded
        # size for the first _exact entries and the _size_bound for the rest,
        # so their sum, _queued_bytes, is exact once every entry is sized.
        self._queue: list = []
        self._exact = 0
        self._queued_bytes = 0
        self._seen_tx_ids: set = set()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def timeout_deadline(self) -> Optional[float]:
        """Instant at which the pending queue must cut by timeout.

        The single definition of the deadline: the cut criterion compares
        against this exact float, so a caller that waits until the deadline
        is never refused by rounding (now - oldest >= timeout can be false
        by one ulp when now was computed as oldest + timeout).
        """
        return self._queue[0][0].submit_time + self.timeout_s if self._queue else None

    def submit(self, tx: Transaction) -> None:
        """Enqueue tx at its submit time."""
        if tx.tx_id in self._seen_tx_ids:
            raise DuplicateTransactionError(f"duplicate transaction id {tx.tx_id!r}")
        self._seen_tx_ids.add(tx.tx_id)
        size = _size_bound(tx)
        self._queue.append((tx, size))
        self._queued_bytes += size

    def cut_block(self, now: float) -> Optional[Block]:
        """Emit at most one block per call; None while no criterion is met."""
        if not self._queue:
            return None
        if len(self._queue) >= self.max_tx_count:
            return self._emit(self.max_tx_count, "count")
        if self._queued_bytes >= self.max_bytes and self._size_exactly() >= self.max_bytes:
            return self._emit(self._byte_prefix(), "bytes")
        if now >= self.timeout_deadline:
            return self._emit(len(self._queue), "timeout")
        return None

    def _size_exactly(self) -> int:
        """Replace every queued bound by the exact size; the queue's size."""
        for i in range(self._exact, len(self._queue)):
            tx, bound = self._queue[i]
            size = transaction_encoded_size(tx)
            self._queue[i] = (tx, size)
            self._queued_bytes += size - bound
        self._exact = len(self._queue)
        return self._queued_bytes

    def _byte_prefix(self) -> int:
        # Longest prefix within the byte budget; a single oversized
        # transaction still forms a (singleton) block. The count cut runs
        # first, so the queue here is shorter than max_tx_count, and every
        # queued transaction is sized exactly.
        total = 0
        count = 0
        for _, size in self._queue:
            if count > 0 and total + size > self.max_bytes:
                break
            total += size
            count += 1
        return count

    def _emit(self, count: int, reason: str) -> Block:
        taken = self._queue[:count]
        del self._queue[:count]
        self._queued_bytes -= sum(size for _, size in taken)
        self._exact = max(0, self._exact - count)
        block = Block(
            height=self.next_height,
            transactions=tuple(tx for tx, _ in taken),
            cut_reason=reason,
        )
        self.next_height += 1
        return block


# ----------------------------------------------------------------------
# validation phase


def mvcc_validate(tx: Transaction, ws: WorldState, intra_block_writes: dict,
                  *, skip_keys: frozenset = frozenset()) -> bool:
    """Check every read version against state overlaid with same-block writes.

    A read with version None matches only an absent key. Reads of keys in
    skip_keys are exempt (crdt mode exempts keys the transaction itself
    writes as CRDT values).
    """
    for read in tx.rwset.reads:
        if read.key in skip_keys:
            continue
        if read.key in intra_block_writes:
            current = intra_block_writes[read.key]
        else:
            entry = ws.get_state(read.key)
            current = entry[1] if entry is not None else None
        if read.version != current:
            return False
    return True


def validate_merge_block(block: Block, ws: WorldState, mode: str, orgs: frozenset) -> Block:
    """The block with its verdicts and, in crdt mode, its valid CRDT writes
    merged. A transaction is endorsed if its endorsements name at least one
    of orgs, the configured org set.

    Fabric mode is crdt mode with merging turned off: no key gets a CRDT, so
    no write is exempt from MVCC and none is rewritten.
    """
    if mode not in (FABRIC, CRDT):
        raise ValueError(f"unknown mode {mode!r}")
    merging = mode == CRDT
    reasons: list = []
    crdts: dict = {}  # key -> its CRDT for this block, made at the key's first checked write
    merged: list = []  # indices of the valid transactions that merged CRDT writes
    overlay: dict = {}

    # One verdict per transaction, in block order. An unendorsed transaction
    # is neither merged nor checked. In crdt mode its CRDT-flagged
    # writes are parsed and each checked once against its key's merged
    # document (empty before the key's first merge) next, in write order; the
    # first decode or merge failure invalidates it. MVCC checks the rest:
    # transactions whose writes are all CRDT are exempt, others skip reads of
    # keys they themselves write as CRDT values. Only a valid transaction
    # merges its CRDT writes, each passing its check's result to merge_json
    # in the same iteration, so no check goes stale and no payload of an
    # invalid one reaches a merged document; its writes, CRDT or not, advance
    # the intra-block overlay.
    for i, tx in enumerate(block.transactions):
        writes = tx.rwset.writes
        reason = INVALID_ENDORSEMENT if tx.endorsements.isdisjoint(orgs) else None
        crdt_written = frozenset(w.key for w in writes if w.is_crdt) if merging else frozenset()
        checks = []
        if merging and reason is None:
            for write in writes:
                if not write.is_crdt:
                    continue
                try:
                    doc = parse_json_bytes(write.value)
                    crdt = crdts.get(write.key)
                    if crdt is None:
                        crdt = crdts[write.key] = init_empty_crdt(write.key, doc)
                    checks.append((crdt, doc, crdt.check(doc)))
                except StructuralConflictError:
                    reason = INVALID_STRUCTURAL
                    break
                except DocumentShapeError:
                    reason = INVALID_DECODE
                    break
        if reason is None:
            all_crdt = writes and len(crdt_written) == len(writes)
            if all_crdt or mvcc_validate(tx, ws, overlay, skip_keys=crdt_written):
                reason = VALID
                # Write keys are distinct, so no merge can fail after the checks.
                for crdt, doc, checked in checks:
                    crdt.merge_json(doc, checked=checked)
                if checks:
                    merged.append(i)
                version = Version(block.height, i)
                for write in writes:
                    overlay[write.key] = version
            else:
                reason = INVALID_MVCC
        reasons.append(reason)

    # Only once every merge is done, rewrite the CRDT writes of the
    # transactions that merged to their keys' canonical merged bytes: a key's
    # valid writes share the one Write its first merged transaction gets. No
    # other write is touched.
    txs = list(block.transactions)
    shared: dict = {}  # key -> the Write its valid CRDT writes share
    for i in merged:
        tx = txs[i]
        # Each write still renders and the first is kept; render-once (ROADMAP 3a) stops here.
        writes = tuple(shared.setdefault(w.key, Write(w.key, canonical_json_bytes(
                           crdts[w.key].to_json()), True)) if w.is_crdt else w
                       for w in tx.rwset.writes)
        txs[i] = Transaction(tx.tx_id, ReadWriteSet(tx.rwset.reads, writes), tx.endorsements,
                             tx.submit_time)
    verdicts = tuple(VERDICTS[r] for r in reasons)
    return Block(block.height, tuple(txs), block.cut_reason, verdicts)


# ----------------------------------------------------------------------
# orchestration


@dataclass(slots=True)
class TxRecord:
    tx_id: str
    client_id: str
    submit_time: float
    commit_time: Optional[float]
    validity: str
    block_height: Optional[int]

    @property
    def latency_s(self) -> Optional[float]:
        if self.commit_time is None:
            return None
        return self.commit_time - self.submit_time


@dataclass
class RunReport:
    txs: list = field(default_factory=list)

    @property
    def success_count(self) -> int:
        return sum(1 for t in self.txs if t.validity == VALID)

    @property
    def failure_count(self) -> int:
        return sum(1 for t in self.txs if t.validity in INVALID_REASONS)

    @property
    def throughput_tps(self) -> float:
        """Successful transactions per simulated second, start to last commit."""
        commits = [t.commit_time for t in self.txs if t.validity == VALID]
        if not commits:
            return 0.0
        elapsed = max(commits)
        return len(commits) / elapsed if elapsed > 0 else 0.0

    @property
    def avg_latency_ms(self) -> float:
        lats = [t.latency_s for t in self.txs if t.validity == VALID]
        if not lats:
            return 0.0
        mean = 1000.0 * sum(lats) / len(lats)
        if mean == math.inf:
            # The sum or its product overflowed; the mean of the shares may still fit.
            mean = 1000.0 * sum(lat / len(lats) for lat in lats)
        return mean

    def summary(self) -> dict:
        return {
            "throughput_tps": self.throughput_tps,
            "avg_latency_ms": self.avg_latency_ms,
            "success_count": self.success_count,
            "failure_count": self.failure_count,
        }

    def write_csv(self, fh) -> None:
        fh.write("tx_id,submit_time,commit_time,validity,block_height\n")
        for t in self.txs:
            commit = "" if t.commit_time is None else repr(t.commit_time)
            height = "" if t.block_height is None else str(t.block_height)
            fh.write(f"{t.tx_id},{t.submit_time!r},{commit},{t.validity},{height}\n")
        s = self.summary()
        fh.write(
            f"summary,{s['throughput_tps']!r},{s['avg_latency_ms']!r},"
            f"{s['success_count']},{s['failure_count']}\n"
        )

    def write_json_lines(self, fh) -> None:
        for t in self.txs:
            fh.write(json.dumps({
                "tx_id": t.tx_id,
                "submit_time": t.submit_time,
                "commit_time": t.commit_time,
                "validity": t.validity,
                "block_height": t.block_height,
            }, sort_keys=True) + "\n")
        fh.write(json.dumps({"summary": self.summary()}, sort_keys=True) + "\n")


def run_pipeline(config: PipelineConfig, proposals: Iterable[Proposal], chaincode: ChaincodeSpec,
                 *, ws: Optional[WorldState] = None, log: Optional[BlockLog] = None) -> RunReport:
    """Drive execute, order, validate, commit until the stream drains.

    Single-threaded and deterministic: proposals are processed in submit-time
    order, timeout cuts fire at their exact simulated instant, and count or
    byte cuts fire at the triggering submit. Commit time of a block is its
    cut time.
    """
    config.validate()
    ws = ws if ws is not None else WorldState()
    log = log if log is not None else BlockLog()
    endorsers = frozenset(config.orgs)
    timeout_s = config.block_timeout_ms / 1000.0
    orderer = Orderer(config.max_tx_count, config.max_bytes, timeout_s,
                      first_height=log.next_height)
    report = RunReport()
    by_tx_id: dict = {}

    def settle(block: Block, now: float) -> None:
        block = validate_merge_block(block, ws, config.mode, endorsers)
        commit_block(ws, log, block)
        for tx, verdict in zip(block.transactions, block.validity):
            record = by_tx_id[tx.tx_id]
            record.commit_time = now
            record.validity = verdict.reason
            record.block_height = block.height

    def fire_timeouts(up_to: float) -> None:
        # A non-empty queue always cuts at its own deadline.
        while len(orderer) and orderer.timeout_deadline <= up_to:
            cut_at = orderer.timeout_deadline
            settle(orderer.cut_block(cut_at), cut_at)

    # Nothing commits while a chaincode runs, so under the fresh policy the
    # live state is the snapshot.
    snap = ws.snapshot() if config.snapshot_policy == "batch" else ws
    for counter, prop in enumerate(sorted(proposals, key=lambda p: p.submit_time)):
        now = prop.submit_time
        fire_timeouts(now)
        tx_id = f"{prop.client_id}-{counter:06d}"
        record = TxRecord(tx_id, prop.client_id, now, None, "", None)
        report.txs.append(record)
        by_tx_id[tx_id] = record
        try:
            rwset = chaincode.fn(prop.args, snap)
        except Exception:
            record.validity = PROPOSAL_FAILURE
            continue
        if not rwset.writes:
            record.validity = READ_ONLY  # nothing to order
            continue
        orderer.submit(Transaction(tx_id, rwset, endorsers, now))
        while (block := orderer.cut_block(now)) is not None:
            settle(block, now)
    fire_timeouts(math.inf)
    return report


# ----------------------------------------------------------------------
# block serialization for the log file


# A block record is the canonical JSON (jsoncrdt.canonical_json_bytes) of
#   {"cut_reason": text, "height": int, "transactions": [transaction, ...],
#    "validity": [[valid, reason], ...]}
# with each transaction the canonical JSON of
#   {"endorsements": [org, ...], "reads": [[key, null | [height, index]], ...],
#    "submit_time": float, "tx_id": text, "writes": [[key, value, is_crdt], ...]}
# and the orgs sorted. In block order (transactions, then their writes), the
# first write of each distinct value holds its base64 text, an inline value;
# every later write of an equal value holds instead the int index of that
# value among the record's inline values (0 for the first). A record of a
# block without a repeated value holds no index. The writers below emit those
# bytes directly, as the canonical encoder would for the field types the
# dataclasses declare (not for a bool in an int slot, which it writes true and
# an f-string True): keys in sorted order, text escaped by encode_basestring
# (the encoder's own escaper without ensure_ascii), a float as float.__repr__
# or NaN, Infinity and -Infinity, and base64 unescaped, since its alphabet
# needs no escape. A record loads only if they write back its exact bytes
# from the block it decodes to, with indices or, as logs saved before indices
# hold it, with every value inline; the loader itself checks only the fields
# whose bad values they would write back unchanged.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_transaction(tx: Transaction, out: list, refs: Optional[dict], orgs: dict) -> None:
    """Append the UTF-8 pieces of tx's record to out. refs maps each value
    written inline earlier in the record to its index, and gains the values
    tx writes inline; with refs None every value is written inline. orgs
    maps each endorsement set written before to its text, and gains tx's."""
    submit_time = repr(tx.submit_time)
    reads = ",".join([f"[{encode_basestring(r.key)},null]" if r.version is None else
                      f"[{encode_basestring(r.key)},[{r.version.block_height},{r.version.tx_index}]]"
                      for r in tx.rwset.reads])
    endorsements = orgs.get(tx.endorsements)
    if endorsements is None:
        endorsements = orgs[tx.endorsements] = ",".join(map(encode_basestring, sorted(tx.endorsements)))
    out.append(f'{{"endorsements":[{endorsements}],'
               f'"reads":[{reads}],"submit_time":{_NON_FINITE.get(submit_time, submit_time)},'
               f'"tx_id":{encode_basestring(tx.tx_id)},"writes":['.encode("utf-8"))
    opening = "["
    for w in tx.rwset.writes:
        index = refs.get(w.value) if refs is not None else None
        if index is None:
            out.append(f'{opening}{encode_basestring(w.key)},"'.encode("utf-8"))
            out.append(b2a_base64(w.value, newline=False))
            out.append(b'",true]' if w.is_crdt else b'",false]')
            if refs is not None:
                refs[w.value] = len(refs)
        else:
            out.append(f'{opening}{encode_basestring(w.key)},{index},'
                       f'{"true" if w.is_crdt else "false"}]'.encode("utf-8"))
        opening = ",["
    out.append(b"]}")


def block_record(block: Block, references: bool = True) -> bytes:
    """The canonical bytes of block's log record, each distinct write value
    inline once; with references False, every value inline. A field of the
    wrong type raises TypeError naming its transaction's index."""
    refs = {} if references else None
    orgs: dict = {}
    out = [f'{{"cut_reason":{encode_basestring(block.cut_reason)},"height":{block.height},'
           f'"transactions":['.encode("utf-8")]
    for i, tx in enumerate(block.transactions):
        if i:
            out.append(b",")
        try:
            _write_transaction(tx, out, refs, orgs)
        except TypeError as exc:
            raise TypeError(f"transaction {i}: {exc}") from exc
    validity = ",".join([f'[{"true" if v.valid else "false"},{encode_basestring(v.reason)}]'
                         for v in block.validity])
    out.append(f'],"validity":[{validity}]}}'.encode("utf-8"))
    return b"".join(out)


def transaction_from_jsonable(doc: dict, shared: Optional[dict] = None,
                              inline: Optional[list] = None) -> Transaction:
    """Transaction from its log record; raise ValueError unless the submit
    time is a float and each version two ints (a bool or a float is no int,
    and an int no float), which the writer would write back unchanged. Every
    other field is checked by the load rule, which load_block_log applies.
    A text value decodes as base64, or raises ValueError naming its write
    key, and its Write joins inline, the record's inline Writes before it;
    any other value indexes inline, and the write is that Write if its key
    and flag are the same, else a new Write of that Write's value. shared
    maps each key text to its one string and each endorsement list to its
    one set, and gains those tx brings, so that equal ones load as one
    object."""
    shared = {} if shared is None else shared
    inline = [] if inline is None else inline
    submit_time = doc["submit_time"]
    if type(submit_time) is not float:
        raise ValueError(f"submit time {submit_time!r} is not a float")
    orgs = tuple(doc["endorsements"])
    if orgs not in shared:
        shared[orgs] = frozenset(orgs)
    reads = []
    for key, version in doc["reads"]:
        if version is not None:
            height, index = version
            if type(height) is not int or type(index) is not int:
                raise ValueError(f"version {version!r} is not two ints")
            version = Version(height, index)
        reads.append(Read(shared.setdefault(key, key), version))
    writes = []
    for key, value, is_crdt in doc["writes"]:
        if type(value) is str:
            try:
                value = a2b_base64(value)
            except ValueError as exc:  # binascii.Error, or a non-ASCII text
                raise ValueError(f"write {key!r}: value is not base64: {exc}") from None
            write = Write(shared.setdefault(key, key), value, is_crdt)
            inline.append(write)
        else:
            write = inline[value]
            key = shared.setdefault(key, key)
            if write.key is not key or write.is_crdt is not is_crdt:
                write = Write(key, write.value, is_crdt)
        writes.append(write)
    return Transaction(doc["tx_id"], ReadWriteSet(tuple(reads), tuple(writes)), shared[orgs], submit_time)


def block_from_jsonable(doc: dict, shared: Optional[dict] = None) -> Block:
    """Block from its log record; raise ValueError unless it has an int
    height, a known cut reason and one verdict per transaction, which the
    writer would write back unchanged (the load rule checks the rest).
    Within the record, a write that refers back to a value with the same
    key and flag loads as the inline write's object, and one under another
    key or flag shares its value; across records, equal keys and
    endorsement lists load as one object through shared (see
    transaction_from_jsonable). Each verdict is the one VERDICTS holds for
    its reason."""
    height, cut_reason = doc["height"], doc["cut_reason"]
    if type(height) is not int:
        raise ValueError(f"height {height!r} is not an int")
    if cut_reason not in CUT_REASONS:
        raise ValueError(f"unknown cut reason {cut_reason!r}")
    shared = {} if shared is None else shared
    inline: list = []
    transactions = tuple(transaction_from_jsonable(t, shared, inline) for t in doc["transactions"])
    validity = tuple(VERDICTS[reason] for _, reason in doc["validity"])
    if len(validity) != len(transactions):
        raise ValueError(f"{len(validity)} verdicts for {len(transactions)} transactions")
    return Block(height, transactions, cut_reason, validity)


def genesis_to_jsonable(genesis: Genesis) -> dict:
    return {"chunk": genesis.chunk, "genesis": list(genesis.keys)}


def save_block_log(log, path) -> None:
    """Write the log's genesis, if it has one, as record 0, then one record
    per block; log is a BlockLog or any sequence of blocks. A log of neither
    raises LedgerError and writes nothing, since its empty file would not
    load."""
    genesis = getattr(log, "genesis", None)
    if genesis is None and not log:
        raise LedgerError(f"{path}: a block log needs a genesis or a block to save")

    def records():
        if genesis is not None:
            yield canonical_json_bytes(genesis_to_jsonable(genesis))
        yield from map(block_record, log)

    write_record_file(path, records())


def load_block_log(path) -> BlockLog:
    """The log saved in a file, read one record at a time. A record loads
    only if the writer gives back its exact bytes: the canonical JSON of the
    genesis it decodes to, or block_record of its block, with references or
    every value inline. Record 0 may be a genesis; each block's height must
    follow the genesis heights and the blocks before it, so a log saved
    without a genesis loads too. A record that does not decode, is out of
    order or is not the writer's raises LedgerError naming the file and the
    record index, and for the last the first byte that differs, after the
    file is closed. A file of no record raises LedgerError naming it: every
    saved log holds its genesis or a block. Equal keys and endorsement lists
    load as one object each across the whole log, a genesis key's as the
    genesis's own string; within one record, a write referring back to a
    value with its key and flag loads as the Write it refers to (see
    block_from_jsonable), so a key's valid CRDT writes in a block share one
    Write, as in the live log."""
    log = BlockLog()
    shared: dict = {}
    with closing(read_record_file(path)) as records:
        for index, record in enumerate(records):
            try:
                _load_record(log, index, record, shared)
            except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
                raise LedgerError(f"{path}: record {index}: {type(exc).__name__}: {exc}") from exc
    if log.genesis is None and not log:
        raise LedgerError(f"{path}: no record; a saved block log holds its genesis or a block")
    return log


def _load_record(log: BlockLog, index: int, record: bytes, shared: dict) -> None:
    doc = json.loads(record)
    if "genesis" in doc:
        if index != 0:
            raise ValueError("genesis record after record 0")
        genesis = Genesis(tuple(doc["genesis"]), doc["chunk"])
        written = canonical_json_bytes(genesis_to_jsonable(genesis))
        if record != written:
            raise _not_written(record, written)
        log.genesis = genesis
        shared.update(zip(genesis.keys, genesis.keys))
        return
    block = block_from_jsonable(doc, shared)
    if block.height != log.next_height:
        raise ValueError(f"height {block.height} out of order")
    written = block_record(block)
    if record != written and record != (inline := block_record(block, references=False)):
        raise _not_written(record, written, inline)
    log.append(block)


def _not_written(record: bytes, *forms: bytes) -> ValueError:
    """The error for a record that equals none of the writer's forms: it
    names the first byte at which the form agreeing longest differs."""
    def differs_at(form: bytes) -> int:
        return next((i for i, (a, b) in enumerate(zip(record, form)) if a != b),
                    min(len(record), len(form)))

    offset, form = max((differs_at(form), form) for form in forms)
    return ValueError(f"not the writer's bytes from byte {offset} on: "
                      f"{record[offset:offset + 16]!r} where it writes {form[offset:offset + 16]!r}")


def replay_block_log(loaded: BlockLog) -> tuple:
    """Rebuild world state and log: install the loaded genesis, if any, then
    re-commit the stored blocks in order."""
    ws = WorldState()
    log = BlockLog()
    if loaded.genesis is not None:
        install_genesis(ws, log, loaded.genesis)
    for block in loaded:
        commit_block(ws, log, block)
    return ws, log
