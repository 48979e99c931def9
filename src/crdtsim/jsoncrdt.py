"""Single-writer JSON CRDT with insert-only mutations.

Documents are plain JSON values restricted to text leaves: a document is a
string, a list of documents, or a map from non-empty text keys to documents.
Merging a document generates one insert per text leaf. Each insert carries a
Lamport-clock id and a cursor, the path from the root of the internal tree
to the leaf receiving the value, and is applied as soon as it is generated.
The validator merges a block's writes in block order inside one replica, so
ids only grow: a leaf keeps its latest value, and a list keeps its elements
in insertion order, which is id order. Merging the same documents in the
same order into two instances yields byte-identical canonical output, which
is what the block validator relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

JsonValue = Union[str, list, dict]

# Node and cursor-element kinds.
MAP = "map"
LIST = "list"
LEAF = "leaf"

# Zero-padded width for canonical insert-id text, so that lexicographic order
# equals numeric order; 12 digits cover any realistic run.
ID_PAD = 12

# Root child key reserved for bare-string documents.
BARE_KEY = ""


class CrdtError(Exception):
    pass


class DocumentShapeError(CrdtError, TypeError):
    """The value is not a supported JSON shape (text leaves only)."""


class StructuralConflictError(CrdtError):
    """A cursor addresses an existing node of an incompatible kind."""


def canonical_id(counter: int) -> str:
    return f"{counter:0{ID_PAD}d}"


def canonical_json_bytes(value: JsonValue) -> bytes:
    """Canonical serialization: sorted map keys, compact separators, UTF-8."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def check_document_shape(value: JsonValue) -> None:
    """Raise DocumentShapeError unless value is text / list / map with text keys.

    Numbers, booleans and nulls are rejected: leaves must be encoded as text
    before entering the CRDT. Map keys must be non-empty text.
    """
    if isinstance(value, str):
        return
    if isinstance(value, list):
        for item in value:
            check_document_shape(item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise DocumentShapeError(f"map key {key!r} is not text")
            if key == "":
                raise DocumentShapeError("map keys must be non-empty")
            check_document_shape(item)
        return
    raise DocumentShapeError(f"unsupported leaf {value!r}; encode scalars as text")


@dataclass(frozen=True)
class CursorElement:
    kind: str
    key: str


Cursor = tuple  # tuple[CursorElement, ...]


@dataclass
class CrdtNode:
    kind: str
    # map key or list-element id -> CrdtNode; empty on leaf nodes
    children: dict = field(default_factory=dict)
    value: str = ""  # leaf text; each insert overwrites it, so the latest wins


class JsonCrdt:
    """Single-writer CRDT instance for one ledger key."""

    def __init__(self, key: str):
        if not key:
            raise ValueError("CRDT key must be non-empty")
        self.key = key
        self.clock = 0  # Lamport counter: id of the latest generated insert
        self.root = CrdtNode(kind=MAP)
        self.applied: set = set()

    def merge_json(self, doc: JsonValue) -> None:
        """Merge a plain document: one insert per text leaf, each applied as
        it is generated.

        The document must be a map or a bare string.
        """
        check_document_shape(doc)
        if isinstance(doc, str):
            if any(k != BARE_KEY for k in self.root.children):
                raise StructuralConflictError("bare string merged into a map document")
            self._insert((CursorElement(LEAF, BARE_KEY),), doc)
            return
        if not isinstance(doc, dict):
            raise DocumentShapeError("top-level document must be a map or a string")
        if BARE_KEY in self.root.children:
            raise StructuralConflictError("map document merged into a bare string")
        for key, value in doc.items():
            self._add_value(key, value, ())

    def _add_value(self, key: str, value: JsonValue, cursor: Cursor) -> None:
        if isinstance(value, str):
            self._insert(cursor + (CursorElement(LEAF, key),), value)
        elif isinstance(value, list):
            list_cursor = cursor + (CursorElement(LIST, key),)
            for element in value:
                # Each element is a child keyed by the id of the first insert
                # generated inside it: ids order the elements, and elements
                # from distinct merges never collapse into one another.
                self._add_value(canonical_id(self.clock + 1), element, list_cursor)
        else:
            map_cursor = cursor + (CursorElement(MAP, key),)
            for entry_key, entry_value in value.items():
                self._add_value(entry_key, entry_value, map_cursor)

    def _insert(self, cursor: Cursor, value: str) -> None:
        """Tick the clock and write value at the leaf the cursor ends in,
        creating missing nodes on the way.

        The only conflict, an existing child of the wrong kind, can only come
        before the walk's first creation, so an insert that raises changes
        nothing but the clock.
        """
        self.clock += 1
        node = self.root
        for step in cursor:
            child = node.children.get(step.key)
            if child is None:
                child = node.children[step.key] = CrdtNode(kind=step.kind)
            elif child.kind != step.kind:
                raise StructuralConflictError(
                    f"node {step.key!r} is a {child.kind}, insert expects a {step.kind}"
                )
            node = child
        node.value = value
        self.applied.add(self.clock)

    def to_json(self) -> JsonValue:
        """Strip metadata and return the plain document."""
        # A bare-string document is the leaf under BARE_KEY, alone in the root.
        return render_node(self.root.children.get(BARE_KEY, self.root))


def render_node(node: CrdtNode) -> JsonValue:
    if node.kind == LEAF:
        return node.value
    if node.kind == MAP:
        return {key: render_node(child) for key, child in node.children.items()}
    # Ids only grow, so insertion order is id order.
    return [render_node(child) for child in node.children.values()]


def init_empty_crdt(key: str, sample: JsonValue) -> JsonCrdt:
    """Fresh CRDT for a ledger key; sample only validates the JSON shape."""
    check_document_shape(sample)
    return JsonCrdt(key)

