"""Deterministic execute-order-validate pipeline simulator with a JSON CRDT
merge path alongside classic MVCC validation."""
