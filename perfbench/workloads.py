"""The benchmark's workloads: one PipelineConfig and one WorkloadConfig each.

Why each was chosen is recorded in BENCHMARK.json and README.md.

Fields are plain dicts so the orchestrating process can describe a workload
without importing crdtsim; the worker builds the config objects. The seed is
supplied per run, never stored here.

crdt mode with the fresh snapshot policy on a hot key is deliberately absent:
every committed hot document is re-inserted into each later block's CRDT with
new operation ids, so the document grows about 25x per block (100 txs took
286 s on the seed). It cannot run at any steady length; it belongs to the
change that fixes that defect. The same defect stays visible here through the
lost_reading_ratio of crdt-hot and crdt-mixed.
"""

from __future__ import annotations

# name -> (PipelineConfig fields, WorkloadConfig fields)
WORKLOADS = {
    "crdt-hot": (
        dict(mode="crdt", snapshot_policy="batch", max_tx_count=25),
        dict(total_txs=1000, conflict_pct=100.0, n_read_keys=1, n_write_keys=1,
             json_keys=3, json_depth=3),
    ),
    "fabric-fresh": (
        dict(mode="fabric", snapshot_policy="fresh", max_tx_count=25),
        dict(total_txs=3000, conflict_pct=20.0, n_read_keys=2, n_write_keys=2,
             json_keys=1, json_depth=1),
    ),
    "crdt-mixed": (
        dict(mode="crdt", snapshot_policy="batch", max_tx_count=25),
        dict(total_txs=3000, conflict_pct=50.0, n_read_keys=3, n_write_keys=1,
             json_keys=2, json_depth=2),
    ),
}
