"""Single-writer JSON CRDT whose state is the merged document itself.

Documents are text leaves, lists of documents, and maps from non-empty text
keys to documents. The block validator merges a key's writes in block order
inside one replica, so no per-insert ids or cursors are kept (they make
concurrent replicas' operations commute, arXiv:1608.03960). A merge is an
in-place union: maps merge per key, lists append, a text leaf keeps its latest
value, and containers holding no text leaf are dropped. A merge that meets a
key holding another kind of value raises and changes nothing. `union` is the
one document union; the chaincode uses it too. The validator checks a write
with `JsonCrdt.check` and hands the result to `merge_json`.
"""

from __future__ import annotations

import json

JsonValue = str | list | dict


class CrdtError(Exception):
    pass


class DocumentShapeError(CrdtError, TypeError):
    """The value is not a supported JSON shape (text leaves only)."""


class StructuralConflictError(CrdtError):
    """A merge meets a key that holds another kind of value."""


# One encoder for every render; json.dumps would build a new one per call.
# Every value rendered here is a fresh tree, so no circular-reference table is
# kept: a self-referencing value raises RecursionError.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                              check_circular=False)


def canonical_json_bytes(value: JsonValue) -> bytes:
    """Canonical serialization: sorted map keys, compact separators, UTF-8."""
    return _CANONICAL.encode(value).encode("utf-8")


def _key_error(key) -> DocumentShapeError:
    return DocumentShapeError("map keys must be non-empty" if key == "" else f"map key {key!r} is not text")


def _leaf_error(value) -> DocumentShapeError:
    return DocumentShapeError(f"unsupported leaf {value!r}; encode scalars as text")


def _pruned_copy(value: JsonValue) -> tuple:
    """The shape rule: value is a text leaf, a list of documents or a map
    from non-empty text keys to documents; numbers, booleans and nulls must
    be encoded as text. Raise DocumentShapeError at the first value, in
    document order, that breaks it. Otherwise return a copy of value without
    containers that hold no text leaf, and its number of text leaves."""
    if isinstance(value, str):
        return value, 1
    leaves = 0
    if isinstance(value, list):
        copy = []
        for item in value:
            kept, count = _pruned_copy(item)
            if count:
                copy.append(kept)
                leaves += count
        return copy, leaves
    if not isinstance(value, dict):
        raise _leaf_error(value)
    copy = {}
    for key, item in value.items():
        if not (isinstance(key, str) and key):
            raise _key_error(key)
        kept, count = _pruned_copy(item)
        if count:
            copy[key] = kept
            leaves += count
    return copy, leaves


def parse_json_bytes(value: bytes):
    """Parse write bytes as JSON without checking the shape, or raise DocumentShapeError."""
    try:
        return json.loads(value.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentShapeError(f"not a JSON document: {exc}") from exc


def _kind(value: JsonValue) -> str:
    return "leaf" if isinstance(value, str) else "list" if isinstance(value, list) else "map"


def _check_union(held: dict, doc: dict) -> None:
    """Raise StructuralConflictError at the first key where doc and held differ in kind."""
    for key, value in doc.items():
        old = held.get(key)
        if old is not None and _kind(old) != _kind(value):
            raise StructuralConflictError(f"node {key!r} is a {_kind(old)}, "
                                          f"insert expects a {_kind(value)}")
        if isinstance(old, dict):
            _check_union(old, value)


def union(held: dict, doc: dict) -> dict:
    """Union map doc into map held in place, and return held: a map merges
    into a map, a list extends a list, and any other pair takes doc's value.
    doc is not changed, though its values may end up inside held."""
    for key, value in doc.items():
        old = held.get(key)
        if isinstance(old, dict) and isinstance(value, dict):
            union(old, value)
        elif isinstance(old, list) and isinstance(value, list):
            old.extend(value)
        else:
            held[key] = value
    return held


class JsonCrdt:
    """Single-writer CRDT instance for one ledger key."""

    def __init__(self, key: str):
        if not key:
            raise ValueError("CRDT key must be non-empty")
        self.key = key
        self.clock = 0  # text leaves merged so far
        self.document: JsonValue = {}

    @property
    def applied(self) -> range:
        """1..clock, one per merged leaf; only perfbench reads it until ROADMAP item 1."""
        return range(1, self.clock + 1)

    def check(self, doc: JsonValue) -> tuple:
        """Raise what merging doc would raise, changing nothing; return the
        pruned copy of doc and its number of text leaves, which
        merge_json(doc, checked=...) takes until the next merge."""
        copy, leaves = _pruned_copy(doc)
        if isinstance(doc, list):
            raise DocumentShapeError("top-level document must be a map or a string")
        if isinstance(doc, str):
            if isinstance(self.document, dict) and self.document:
                raise StructuralConflictError("bare string merged into a map document")
        elif isinstance(self.document, str):
            raise StructuralConflictError("map document merged into a bare string")
        else:
            _check_union(self.document, copy)
        return copy, leaves

    def merge_json(self, doc: JsonValue, *, checked: tuple | None = None) -> None:
        """Union doc, a map or a bare string, into the document, or raise and change nothing.

        checked, when given, is the caller's promise that it is check(doc)
        with nothing merged since; its copy is merged without walking doc
        again. Without it, doc is checked here.
        """
        copy, leaves = checked or self.check(doc)
        self.document = copy if isinstance(copy, str) else union(self.document, copy)
        self.clock += leaves

    def to_json(self) -> JsonValue:
        """The merged document itself; the CRDT owns it, so callers only read it."""
        return self.document


def init_empty_crdt(key: str, sample: JsonValue) -> JsonCrdt:
    """Fresh CRDT for a ledger key. sample is not read: JsonCrdt.check
    checks each document before it merges."""
    return JsonCrdt(key)
