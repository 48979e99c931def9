"""Brute-force readings oracle.

A valid transaction's reading must appear in the committed document of every
key it writes, exactly once. The oracle rebuilds, from the generated stream
and the final verdicts alone, the multiset of reading leaves each written key
should hold, and compares it with the committed documents. A leaf is its
path of map keys (list positions dropped) and its text; the skeleton's
``deviceID`` entry is not a reading.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from crdtsim.txpipeline import VALID


def reading_leaves(doc, path: tuple = ()):
    """Yield (map-key path, leaf text) for every reading leaf of a document."""
    if isinstance(doc, str):
        yield path, doc
    elif isinstance(doc, list):
        for item in doc:
            yield from reading_leaves(item, path)
    elif isinstance(doc, dict):
        for key, value in doc.items():
            if not path and key == "deviceID":
                continue
            yield from reading_leaves(value, path + (key,))
    else:
        raise TypeError(f"unexpected JSON value {doc!r}")


@dataclass
class ReadingsCheck:
    expected: int
    lost: Counter  # (key, path, text) -> how many expected copies are missing
    extra: Counter  # (key, path, text) -> how many surplus copies are present

    @property
    def lost_ratio(self) -> float:
        return sum(self.lost.values()) / self.expected if self.expected else 0.0

    @property
    def extra_ratio(self) -> float:
        return sum(self.extra.values()) / self.expected if self.expected else 0.0


def check_readings(proposals, tx_records, n_write_keys: int, ws) -> ReadingsCheck:
    """Compare committed documents with the readings of valid transactions.

    ``proposals`` are in the order the pipeline processed them (submit-time
    order) and ``tx_records`` are the run report's records in that same
    order.
    """
    proposals = list(proposals)
    if len(proposals) != len(tx_records):
        raise ValueError(f"{len(proposals)} proposals but {len(tx_records)} records")
    expected: dict = {}
    for prop, record in zip(proposals, tx_records):
        if (prop.client_id, prop.submit_time) != (record.client_id, record.submit_time):
            raise ValueError(f"record {record.tx_id} does not match its proposal")
        keys, reading = prop.args
        leaves = list(reading_leaves(reading))
        for key in keys[:n_write_keys]:
            bag = expected.setdefault(key, Counter())
            if record.validity == VALID:
                bag.update(leaves)
    lost: Counter = Counter()
    extra: Counter = Counter()
    for key, want in expected.items():
        entry = ws.get_state(key)
        have = Counter(reading_leaves(json.loads(entry[0]))) if entry is not None else Counter()
        for leaf in want.keys() | have.keys():
            diff = want[leaf] - have[leaf]
            if diff > 0:
                lost[(key,) + leaf] = diff
            elif diff < 0:
                extra[(key,) + leaf] = -diff
    total = sum(sum(bag.values()) for bag in expected.values())
    return ReadingsCheck(expected=total, lost=lost, extra=extra)
