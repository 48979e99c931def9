"""IoT temperature-reading workload generator.

Produces seeded, reproducible proposal streams for a chaincode that reads
device documents, adds a fresh temperature reading, and writes the documents
back. A configurable share of proposals targets a shared hot key set so that
they all conflict under MVCC; the rest touch per-transaction unique keys.
Four clients submit at a fixed arrival rate on the simulated clock.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Iterable

from .jsoncrdt import JsonValue, canonical_json_bytes, parse_json_bytes, union
from .ledger import device_skeleton_bytes
from .txpipeline import (
    ChaincodeSpec,
    Proposal,
    Read,
    ReadWriteSet,
    Write,
)

CLIENT_COUNT = 4
# A reading nests two JSON containers per level of json_depth, and encoding,
# parsing and merging it recurse per container; this bound stays well inside
# Python's default recursion limit of 1,000 (depth 500 exceeds it).
MAX_JSON_DEPTH = 100


@dataclass
class WorkloadConfig:
    total_txs: int = 1000
    arrival_rate_tps: float = 300.0
    n_read_keys: int = 1
    n_write_keys: int = 1
    json_keys: int = 1
    json_depth: int = 1
    conflict_pct: float = 100.0
    seed: int = 42

    def validate(self) -> None:
        if self.total_txs <= 0:
            raise ValueError(f"total_txs must be positive, not {self.total_txs!r}")
        if self.json_keys < 1:
            raise ValueError(f"json_keys must be at least 1, not {self.json_keys!r}")
        if not 1 <= self.json_depth <= MAX_JSON_DEPTH:
            raise ValueError(f"json_depth must be within [1, {MAX_JSON_DEPTH}], not {self.json_depth!r}")
        rate = self.arrival_rate_tps
        if not 0 < rate < math.inf:
            raise ValueError(f"arrival_rate_tps must be {'positive' if rate <= 0 else 'finite'}, not {rate!r}")
        try:
            last_submit = (self.total_txs - 1) / rate
        except OverflowError:
            # The value itself is not echoed: it has hundreds of digits.
            raise ValueError("total_txs is too large: the last proposal's submit time "
                             "does not fit a float") from None
        if last_submit == math.inf:
            raise ValueError(f"arrival_rate_tps {rate!r} is too small: the last of total_txs={self.total_txs!r} "
                             f"proposals would be submitted at time inf")
        if self.total_txs > sys.maxsize:
            # gen_stream samples the conflicting proposals from range(total_txs), which needs its len().
            raise ValueError(f"total_txs must be at most {sys.maxsize}, the largest len() on this platform, "
                             f"not {self.total_txs!r}")
        if not 0 <= self.conflict_pct <= 100:
            raise ValueError(f"conflict_pct must be within [0, 100], not {self.conflict_pct!r}")
        if not 1 <= self.n_write_keys <= self.n_read_keys:
            raise ValueError(f"need 1 <= n_write_keys <= n_read_keys, as the chaincode reads each document it "
                             f"writes, not n_write_keys={self.n_write_keys!r} and n_read_keys={self.n_read_keys!r}")


def _reading(room_keys: list, values: Iterable, depth: int, rooms: dict) -> dict:
    """A new document mapping each room key to the room list of the value
    drawn for it, in order: rooms[value] if that value was built before,
    else a new list that rooms keeps for the next reading to draw it."""
    doc = {}
    for key, value in zip(room_keys, values):
        room = rooms.get(value)
        if room is None:
            inner: JsonValue = {"temperatureValue": str(value)}
            for _ in range(max(2, depth) - 2):
                inner = {"temperatureReading": [inner]}
            room = rooms[value] = [inner]
        doc[key] = room
    return doc


def iot_chaincode(config: WorkloadConfig) -> ChaincodeSpec:
    """Read device documents, union in the new reading, write them back.

    Proposal args are (keys, reading): the first n_read_keys keys are read,
    one lookup each, and the first n_write_keys of those written, every
    write flagged CRDT (fabric mode ignores the flag). The reading is merged
    with jsoncrdt.union into a fresh parse of each stored document, or of
    the device skeleton for an absent key, so it is never changed.
    gen_stream's proposals share their reading maps and room lists, so a
    chaincode must not change its args, or one change would reach many
    proposals. Stored documents are parsed without a shape check: only this
    chaincode, the genesis and the validator's merged renders write state,
    well-shaped.
    """

    def fn(args, snap) -> ReadWriteSet:
        keys, reading = args
        reads = []
        writes = []
        for i, key in enumerate(keys[: config.n_read_keys]):
            entry = snap.get_state(key)
            reads.append(Read(key, entry[1] if entry is not None else None))
            if i < config.n_write_keys:
                stored = parse_json_bytes(entry[0] if entry is not None else device_skeleton_bytes(key))
                writes.append(Write(key, canonical_json_bytes(union(stored, reading)), True))
        return ReadWriteSet(tuple(reads), tuple(writes))

    return ChaincodeSpec(name="iot_readings", fn=fn)


def hot_keys(config: WorkloadConfig) -> list:
    """Shared key set written by every conflicting proposal."""
    return [f"device-hot-{j}" for j in range(config.n_write_keys)]


def gen_stream(config: WorkloadConfig) -> list:
    """Seeded proposal stream: total_txs proposals over 4 clients at the
    configured rate; conflict_pct percent write the hot key set.

    Each key tuple holds the n_read_keys keys a proposal reads, the
    n_write_keys it writes first. Conflicting proposals place the hot keys
    first and fill the rest with per-proposal unique keys, so their writes
    always collide while surplus reads stay private.

    Readings share their parts: proposals whose draws are equal, room by
    room, hold one reading map; one room list per drawn value serves every
    reading that drew it; and each room key and client id is one string per
    stream. Only the args tuple is each proposal's own. A chaincode must
    therefore not change its args: a change to one reading map or room list
    would change every proposal that holds it.
    """
    config.validate()
    rng = random.Random(config.seed)
    width, rate = config.n_read_keys, config.arrival_rate_tps
    shared = tuple(hot_keys(config))
    fill = width - len(shared)  # a conflicting proposal's unique keys
    conflict_count = round(config.total_txs * config.conflict_pct / 100.0)
    conflicting = set(rng.sample(range(config.total_txs), conflict_count))
    room_keys = [f"temperatureRoom{i}" for i in range(1, config.json_keys + 1)]
    rooms = {}  # drawn value -> room list
    readings = {}  # tuple of drawn values, in room order -> reading map
    clients = [f"client{c}" for c in range(1, CLIENT_COUNT + 1)]
    proposals = []
    for i in range(config.total_txs):
        if i in conflicting:
            keys = shared + tuple([f"device-{i}-{j}" for j in range(fill)])
        else:
            keys = tuple([f"device-{i}-{j}" for j in range(width)])
        values = tuple([rng.randrange(41) for _ in room_keys])  # rng.randint(0, 40)'s draw, in fewer calls
        reading = readings.get(values)
        if reading is None:
            reading = readings[values] = _reading(room_keys, values, config.json_depth, rooms)
        proposals.append(Proposal(clients[i % CLIENT_COUNT], i / rate, (keys, reading)))
    return proposals


def read_key_universe(config: WorkloadConfig, proposals: Iterable[Proposal]) -> list:
    """Every key any proposal will read, for pre-populating the ledger."""
    keys = set()
    for prop in proposals:
        prop_keys, _ = prop.args
        keys.update(prop_keys[: config.n_read_keys])
    return sorted(keys)

