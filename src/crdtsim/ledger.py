"""Versioned world state and append-only block log.

The world state maps keys to (value bytes, version) where a version is the
(block height, tx index) pair of the committing transaction. The block log
keeps every block, valid and invalid transactions alike, so the state can be
reconstructed by replay. An optional file form stores one length-prefixed
canonical JSON record per block.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from .jsoncrdt import canonical_json_bytes


class LedgerError(Exception):
    pass


class OrderingViolationError(LedgerError):
    """Block height does not extend the log contiguously."""


@dataclass(frozen=True, order=True, slots=True)
class Version:
    block_height: int
    tx_index: int


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

    def canonical_bytes(self) -> bytes:
        """Canonical serialization of the full state, for convergence checks."""
        doc = {
            key: [base64.b64encode(value).decode("ascii"), version.block_height, version.tx_index]
            for key, (value, version) in self._entries.items()
        }
        return canonical_json_bytes(doc)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


class BlockLog(list):
    """Committed blocks in height order from 0; commit_block checks the order."""


def commit_block(ws: WorldState, log: BlockLog, block) -> None:
    """Apply valid transactions' writes in order and append the whole block.

    A block without one verdict per transaction raises LedgerError first.
    Invalid transactions stay in the block, writes as submitted, and commit
    nothing; only a valid transaction's CRDT writes carry merged bytes.
    """
    if block.height != len(log):
        raise OrderingViolationError(
            f"cannot commit height {block.height} onto log of length {len(log)}"
        )
    if len(block.validity) != len(block.transactions):
        raise LedgerError(f"block {block.height}: {len(block.validity)} verdicts for "
                          f"{len(block.transactions)} transactions")
    for tx_index, (tx, verdict) in enumerate(zip(block.transactions, block.validity)):
        if not verdict.valid:
            continue
        for write in tx.rwset.writes:
            ws._put(write.key, write.value, Version(block.height, tx_index))
    log.append(block)


# ----------------------------------------------------------------------
# Block-log file: 4-byte big-endian length, then the canonical JSON encoding
# of one block, repeated; genesis at offset 0.

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
