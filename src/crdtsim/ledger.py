"""Versioned world state and append-only block log.

The world state maps keys to (value bytes, version) where a version is the
(block height, tx index) pair of the committing transaction. The block log
keeps the genesis, the bootstrap state as one record, and then every block,
valid and invalid transactions alike, so the state can be reconstructed by
replay. An optional file form stores one length-prefixed canonical JSON
record for the genesis and one per block.
"""

from __future__ import annotations

import itertools
import os
import struct
from binascii import b2a_base64
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Iterator, Optional

# The interpreter's own SHA-256, not hashlib's: hashlib loads OpenSSL's
# libcrypto, which adds 3.65 MB to every command's and worker's memory.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        # A CPython built --without-builtin-hashlib-hashes has only OpenSSL's.
        from hashlib import sha256


class LedgerError(Exception):
    pass


class OrderingViolationError(LedgerError):
    """Block height does not extend the log contiguously."""


@dataclass(frozen=True, order=True, slots=True)
class Version:
    block_height: int
    tx_index: int


# Pieces of the canonical state hashed per sha256 update by WorldState.digest.
DIGEST_BATCH = 64


class WorldState:
    def __init__(self):
        self._entries: dict = {}

    def get_state(self, key: str) -> Optional[tuple]:
        """Return (value bytes, Version) or None when the key is absent."""
        return self._entries.get(key)

    def snapshot(self) -> WorldState:
        """A copy of the state at this commit point; later commits do not reach it."""
        snap = WorldState()
        snap._entries = dict(self._entries)
        return snap

    def keys(self):
        return self._entries.keys()

    def _put(self, key: str, value: bytes, version: Version) -> None:
        existing = self._entries.get(key)
        if existing is not None and not existing[1] < version:
            raise LedgerError(f"version of {key!r} would not increase")
        self._entries[key] = (value, version)

    def _pieces(self) -> Iterator[str]:
        """The canonical JSON (jsoncrdt.canonical_json_bytes) of {key: [base64
        value, height, index]}, written directly, as text pieces: "{", one
        piece per entry in sorted-key order, each after the first led by its
        comma, then "}". Keys are escaped by encode_basestring (the encoder's
        own escaper without ensure_ascii); base64 needs no escape."""
        entries = self._entries
        yield "{"
        comma = ""
        for key in sorted(entries):
            value, version = entries[key]
            value64 = b2a_base64(value, newline=False).decode("ascii")
            yield f'{comma}{encode_basestring(key)}:["{value64}",{version.block_height},{version.tx_index}]'
            comma = ","
        yield "}"

    def canonical_bytes(self) -> bytes:
        """Canonical UTF-8 serialization of the full state, for convergence checks."""
        return "".join(self._pieces()).encode("utf-8")

    def digest(self) -> str:
        """sha256 of canonical_bytes(), fed DIGEST_BATCH pieces at a time, so
        that it holds one batch of the state's text and never all of it."""
        sha = sha256()
        pieces = self._pieces()
        while batch := "".join(itertools.islice(pieces, DIGEST_BATCH)):
            sha.update(batch.encode("utf-8"))
        return sha.hexdigest()


def device_skeleton_bytes(key: str) -> bytes:
    """A device's document before its first reading, {"deviceID": key}, as
    canonical JSON bytes written directly: the genesis value of a
    bootstrapped key and the chaincode's default for an absent one."""
    return f'{{"deviceID":{encode_basestring(key)}}}'.encode("utf-8")


@dataclass(frozen=True, slots=True)
class Genesis:
    """The bootstrap state as one record: key i holds its device skeleton at
    Version(i // chunk, i % chunk), so the record stands for the first
    `heights` block heights. Raise ValueError unless the keys are distinct
    texts and chunk is an int of at least 1."""

    keys: tuple
    chunk: int

    def __post_init__(self):
        if type(self.chunk) is not int or self.chunk < 1:
            raise ValueError(f"genesis chunk {self.chunk!r} is not an int of at least 1")
        for key in self.keys:
            if type(key) is not str:
                raise ValueError(f"genesis key {key!r} is not text")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("duplicate genesis keys")

    @property
    def heights(self) -> int:
        return -(-len(self.keys) // self.chunk)


class BlockLog(list):
    """The optional genesis, then the blocks committed after it in height
    order; commit_block checks the order."""

    genesis: Optional[Genesis] = None  # set by install_genesis

    @property
    def next_height(self) -> int:
        return (self.genesis.heights if self.genesis is not None else 0) + len(self)


def install_genesis(ws: WorldState, log: BlockLog, genesis: Genesis) -> None:
    """Put the genesis skeletons into ws and make it the log's genesis; the
    log must be empty."""
    if log or log.genesis is not None:
        raise LedgerError("a genesis goes only onto an empty block log")
    chunk = genesis.chunk
    for i, key in enumerate(genesis.keys):
        ws._put(key, device_skeleton_bytes(key), Version(i // chunk, i % chunk))
    log.genesis = genesis


def commit_block(ws: WorldState, log: BlockLog, block) -> None:
    """Apply valid transactions' writes in order and append the whole block.

    A block without one verdict per transaction raises LedgerError first.
    Invalid transactions stay in the block, writes as submitted, and commit
    nothing; only a valid transaction's CRDT writes carry merged bytes.
    """
    if block.height != log.next_height:
        raise OrderingViolationError(
            f"cannot commit height {block.height} onto log at height {log.next_height}"
        )
    if len(block.validity) != len(block.transactions):
        raise LedgerError(f"block {block.height}: {len(block.validity)} verdicts for "
                          f"{len(block.transactions)} transactions")
    for tx_index, (tx, verdict) in enumerate(zip(block.transactions, block.validity)):
        if not verdict.valid:
            continue
        version = Version(block.height, tx_index)
        for write in tx.rwset.writes:
            ws._put(write.key, write.value, version)
    log.append(block)


# ----------------------------------------------------------------------
# Block-log file: 4-byte big-endian length, then the canonical JSON encoding
# of one record, repeated; the genesis, if any, is record 0.

def write_record_file(path, records) -> None:
    """Write the records; if producing one raises, delete the partly written
    file, since its complete records would load as a shorter, valid log."""
    with open(path, "wb") as fh:
        try:
            for record in records:
                fh.write(struct.pack(">I", len(record)))
                fh.write(record)
        except BaseException:
            if os.path.isfile(path):
                os.remove(path)
            raise


def read_record_file(path) -> Iterator[bytes]:
    """Yield the records of a length-prefixed file one at a time; a truncated
    record raises LedgerError naming the file, the record index and its byte
    offset, after every record before it was yielded. A length is checked
    against the bytes left in the file before it is read. The file stays open
    until the generator finishes or is closed."""
    offset = 0
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for index in itertools.count():
            header = fh.read(4)
            if not header:
                return
            where = f"{path}: record {index} at byte {offset}"
            if len(header) != 4:
                raise LedgerError(f"{where}: truncated header ({len(header)} of 4 bytes)")
            (length,) = struct.unpack(">I", header)
            remaining = size - offset - 4
            if length > remaining:
                raise LedgerError(f"{where}: truncated body ({remaining} of {length} bytes)")
            yield fh.read(length)
            offset += 4 + length
