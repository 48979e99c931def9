"""In-memory spans around crdtsim's public entry points, for the traced run.

Wrappers are installed on the names the callers look up (txpipeline imports
commit_block, canonical_json_bytes and init_empty_crdt by name, so those are
patched in txpipeline's namespace) and removed afterwards, so untraced runs
execute the unmodified program. A span is
``[name, start, end, parent, tx_id, height, phase, key]``; a span without its
own tx_id or block height inherits its parent's, so the spans of one
transaction share its tx_id and the spans of one block share its height.
``phase`` is set by the benchmark: setup, run or replay.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import ceil, fsum
from time import perf_counter

from crdtsim import jsoncrdt, ledger, txpipeline, workload
from crdtsim.txpipeline import CRDT, INVALID_MVCC, ChaincodeSpec

NAME, START, END, PARENT, TX_ID, HEIGHT, PHASE, KEY = range(8)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._stack: list = []

    def wrap(self, name, fn, *, ids=None, before=None, after=None):
        """Return fn wrapped in a span.

        ids(*args) gives (tx_id, height, key); before(*args) runs outside the
        timed interval and its result reaches after(span, result, pre, *args).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            tx_id, height, key = ids(*args) if ids else (None, None, None)
            parent = stack[-1] if stack else -1
            if parent >= 0:
                up = spans[parent]
                tx_id = up[TX_ID] if tx_id is None else tx_id
                height = up[HEIGHT] if height is None else height
            span = [name, 0.0, 0.0, parent, tx_id, height, self.phase, key]
            stack.append(len(spans))
            spans.append(span)
            pre = before(*args) if before else None
            span[START] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after:
                after(span, return_value, pre, *args)
            return return_value

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def traced_chaincode(tracer: Tracer, cc: ChaincodeSpec, tx_ids: dict) -> ChaincodeSpec:
    """Chaincode whose calls are spans; tx_ids maps id(proposal args) to tx_id."""

    def count_writes(span, rwset, pre, args, snap):
        tracer.counts["write_bytes"] += sum(len(w.value) for w in rwset.writes)

    fn = tracer.wrap("chaincode", cc.fn, ids=lambda args, snap: (tx_ids[id(args)], None, None),
                     after=count_writes)
    return ChaincodeSpec(cc.name, fn)


@contextmanager
def program_spans(tracer: Tracer):
    """Install span wrappers inside crdtsim for the duration of the block."""
    counts = tracer.counts

    def cut(span, block, pre, orderer, now):
        if block is not None:
            span[HEIGHT] = block.height

    def validated(span, vblock, pre, block, ws, mode, policy):
        counts["ordered"] += len(vblock.validity)
        counts["valid"] += sum(1 for v in vblock.validity if v.valid)
        counts["mvcc_invalid"] += sum(1 for v in vblock.validity if v.reason == INVALID_MVCC)
        if mode == CRDT:
            counts["merged_bytes"] += sum(len(w.value) for tx in vblock.transactions
                                          for w in tx.rwset.writes if w.is_crdt)

    def merged(span, result, applied_before, crdt, doc):
        counts["ops_applied"] += len(crdt.applied) - applied_before

    patches = [
        (txpipeline.Orderer, "submit", "Orderer.submit",
         dict(ids=lambda orderer, tx: (tx.tx_id, None, None))),
        (txpipeline, "transaction_encoded_size", "transaction_encoded_size",
         dict(ids=lambda tx: (tx.tx_id, None, None))),
        (txpipeline.Orderer, "cut_block", "Orderer.cut_block", dict(after=cut)),
        (txpipeline, "validate_merge_block", "validate_merge_block",
         dict(ids=lambda block, *rest: (None, block.height, None), after=validated)),
        (jsoncrdt.JsonCrdt, "merge_json", "JsonCrdt.merge_json",
         dict(ids=lambda crdt, doc: (None, None, crdt.key),
              before=lambda crdt, doc: len(crdt.applied), after=merged)),
        (jsoncrdt.JsonCrdt, "to_json", "JsonCrdt.to_json",
         dict(ids=lambda crdt: (None, None, crdt.key))),
        (txpipeline, "init_empty_crdt", "init_empty_crdt",
         dict(ids=lambda key, sample: (None, None, key))),
        (txpipeline, "canonical_json_bytes", "canonical_json_bytes", {}),
        (workload, "canonical_json_bytes", "canonical_json_bytes", {}),
        (ledger.WorldState, "snapshot", "WorldState.snapshot", {}),
        (ledger.WorldState, "digest", "WorldState.digest", {}),
        (txpipeline, "commit_block", "commit_block",
         dict(ids=lambda ws, log, block: (None, block.height, None))),
    ]
    saved = []
    try:
        for owner, attr, name, hooks in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **hooks))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, ceil(len(ordered) * q)) - 1]


def span_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced repetition.

    Times are inclusive span durations (a call's children count towards it).
    Program-internal spans count only in the run phase, so bootstrap and
    replay work does not leak into run-phase layers; the block-log functions
    are timed by their own replay-phase spans.
    """
    durations = defaultdict(list)  # (phase, name) -> [seconds]
    top_level = 0.0
    crdt_keys = set()  # (height, key) of every merged CRDT document
    for span in tracer.spans:
        seconds = span[END] - span[START]
        durations[(span[PHASE], span[NAME])].append(seconds)
        if span[PARENT] < 0:
            top_level += seconds
        if span[NAME] == "JsonCrdt.merge_json" and span[PHASE] == "run":
            crdt_keys.add((span[HEIGHT], span[KEY]))

    def run(name):
        return durations[("run", name)]

    counts = tracer.counts
    validate = run("validate_merge_block")
    to_json_calls = len(run("JsonCrdt.to_json"))
    return {
        "workload.gen_stream_s": fsum(durations[("setup", "gen_stream")]),
        "workload.chaincode_calls": len(run("chaincode")),
        "workload.chaincode_s": fsum(run("chaincode")),
        "workload.chaincode_us_p50": 1e6 * _quantile(run("chaincode"), 0.50),
        "workload.chaincode_us_p99": 1e6 * _quantile(run("chaincode"), 0.99),
        "workload.write_bytes": counts["write_bytes"],
        "bench.populate_s": fsum(durations[("setup", "populate_world_state")]),
        "txpipeline.submit_calls": len(run("Orderer.submit")),
        "txpipeline.submit_s": fsum(run("Orderer.submit")),
        "txpipeline.encoded_size_s": fsum(run("transaction_encoded_size")),
        "txpipeline.cut_block_calls": len(run("Orderer.cut_block")),
        "txpipeline.cut_block_s": fsum(run("Orderer.cut_block")),
        "txpipeline.blocks": len(validate),
        "txpipeline.block_txs_mean": counts["ordered"] / len(validate) if validate else 0.0,
        "txpipeline.validate_s": fsum(validate),
        "txpipeline.validate_ms_p50": 1e3 * _quantile(validate, 0.50),
        "txpipeline.validate_ms_p75": 1e3 * _quantile(validate, 0.75),
        "txpipeline.valid_ratio": counts["valid"] / counts["ordered"] if counts["ordered"] else 0.0,
        "txpipeline.mvcc_invalid": counts["mvcc_invalid"],
        "txpipeline.save_s": fsum(durations[("replay", "save_block_log")]),
        "txpipeline.load_s": fsum(durations[("replay", "load_block_log")]),
        "txpipeline.replay_s": fsum(durations[("replay", "replay_block_log")]),
        "jsoncrdt.instances": len(run("init_empty_crdt")),
        "jsoncrdt.merge_calls": len(run("JsonCrdt.merge_json")),
        "jsoncrdt.merge_s": fsum(run("JsonCrdt.merge_json")),
        "jsoncrdt.ops_applied": counts["ops_applied"],
        "jsoncrdt.to_json_calls": to_json_calls,
        "jsoncrdt.to_json_s": fsum(run("JsonCrdt.to_json")),
        "jsoncrdt.renders_per_key_block": to_json_calls / len(crdt_keys) if crdt_keys else 0.0,
        "jsoncrdt.canonical_bytes_s": fsum(run("canonical_json_bytes")),
        "jsoncrdt.merged_bytes": counts["merged_bytes"],
        "ledger.snapshot_calls": len(run("WorldState.snapshot")),
        "ledger.snapshot_s": fsum(run("WorldState.snapshot")),
        "ledger.commit_s": fsum(run("commit_block")),
        "ledger.digest_s": fsum(run("WorldState.digest")),
        "trace.spans": len(tracer.spans),
        "trace.unattributed_s": wall_s - top_level,
    }
