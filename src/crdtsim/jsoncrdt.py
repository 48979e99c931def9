"""Operation-based JSON CRDT with insert-only mutations.

Documents are plain JSON values restricted to text leaves: a document is a
string, a list of documents, or a map from non-empty text keys to documents.
Merging a document generates one insert operation per text leaf; operations
carry a Lamport-clock id, a dependency set, and a cursor describing the path
from the root of the internal tree to the node receiving the value. Applying
the same operation stream to two instances yields byte-identical canonical
output, which is what the block validator relies on.
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

# Zero-padded width for canonical operation-id text. Lexicographic order of
# padded ids must equal numeric order; 12 digits cover any realistic run.
ID_PAD = 12

# Root child key reserved for bare-string documents.
BARE_KEY = ""


class CrdtError(Exception):
    pass


class DocumentShapeError(CrdtError, TypeError):
    """The value is not a supported JSON shape (text leaves only)."""


class DuplicateOperationError(CrdtError):
    """An operation id was applied or enqueued twice."""


class StructuralConflictError(CrdtError):
    """A cursor addresses an existing node of an incompatible kind."""


class IncompleteStateError(CrdtError):
    """Conversion requested while operations are still pending."""


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


@dataclass(frozen=True)
class Operation:
    id: int
    deps: frozenset
    cursor: Cursor
    value: str  # text inserted at the node the cursor addresses


@dataclass
class CrdtNode:
    key: str
    kind: str
    children: dict = field(default_factory=dict)
    # op id -> inserted text; registers on leaf nodes, string elements on
    # list nodes.
    values: dict = field(default_factory=dict)


class JsonCrdt:
    """Single-writer CRDT instance for one ledger key."""

    def __init__(self, key: str):
        if not key:
            raise ValueError("CRDT key must be non-empty")
        self.key = key
        self.clock = 0  # Lamport counter: greatest operation id generated or applied
        self.root = CrdtNode(key="", kind=MAP)
        self.applied: set = set()
        self.pending: list = []

    # ------------------------------------------------------------------
    # merging plain documents

    def merge_json(self, doc: JsonValue) -> None:
        """Merge a plain document: one insert per text leaf, applied in order.

        The document must be a map or a bare string. Each top-level entry gets
        a fresh cursor and a fresh dependency set; every insert generated under
        that entry depends on all earlier inserts of the same entry.
        """
        check_document_shape(doc)
        if isinstance(doc, str):
            if any(k != BARE_KEY for k in self.root.children):
                raise StructuralConflictError("bare string merged into a map document")
            deps: set = set()
            self._emit((CursorElement(LEAF, BARE_KEY),), doc, deps)
            return
        if not isinstance(doc, dict):
            raise DocumentShapeError("top-level document must be a map or a string")
        if BARE_KEY in self.root.children:
            raise StructuralConflictError("map document merged into a bare string")
        for key, value in doc.items():
            deps = set()
            self._add_value(key, value, (), deps)

    def _add_value(self, key: str, value: JsonValue, cursor: Cursor, deps: set) -> None:
        if isinstance(value, str):
            self._emit(cursor + (CursorElement(LEAF, key),), value, deps)
        elif isinstance(value, list):
            list_cursor = cursor + (CursorElement(LIST, key),)
            for element in value:
                self._add_element(element, list_cursor, deps)
        elif isinstance(value, dict):
            map_cursor = cursor + (CursorElement(MAP, key),)
            for entry_key, entry_value in value.items():
                self._add_value(entry_key, entry_value, map_cursor, deps)
        else:
            raise DocumentShapeError(f"unsupported leaf {value!r}")

    def _add_element(self, element: JsonValue, list_cursor: Cursor, deps: set) -> None:
        if isinstance(element, str):
            self._emit(list_cursor, element, deps)
        elif isinstance(element, dict):
            # Each container element gets its own subtree keyed by the id of
            # the first insert generated inside it, so elements from distinct
            # merges never collapse into one another.
            element_key = canonical_id(self.clock + 1)
            element_cursor = list_cursor + (CursorElement(MAP, element_key),)
            for entry_key, entry_value in element.items():
                self._add_value(entry_key, entry_value, element_cursor, deps)
        elif isinstance(element, list):
            element_key = canonical_id(self.clock + 1)
            self._add_value(element_key, element, list_cursor, deps)
        else:
            raise DocumentShapeError(f"unsupported leaf {element!r}")

    def _emit(self, cursor: Cursor, value: str, deps: set) -> None:
        self.clock += 1
        op = Operation(id=self.clock, deps=frozenset(deps), cursor=cursor, value=value)
        self.apply_operation(op)
        deps.add(op.id)

    # ------------------------------------------------------------------
    # operation delivery

    def apply_operation(self, op: Operation) -> None:
        """Apply one operation, or queue it until its dependencies arrive."""
        if op.id in self.applied or any(p.id == op.id for p in self.pending):
            raise DuplicateOperationError(f"operation {canonical_id(op.id)} already seen")
        if not op.cursor:
            raise ValueError("operation cursor must be non-empty")
        if any(dep >= op.id for dep in op.deps):
            raise ValueError("dependencies must be numerically smaller than the operation id")
        if not set(op.deps) <= self.applied:
            self.pending.append(op)
            return
        self._apply(op)
        self._drain_pending()

    def _drain_pending(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for op in list(self.pending):
                if set(op.deps) <= self.applied:
                    self.pending.remove(op)
                    self._apply(op)
                    progressed = True

    def _apply(self, op: Operation) -> None:
        # The cursor alone rules out descending through a leaf and inserting
        # into a map. What is left is an existing child of the wrong kind,
        # and that can only come before the first node this walk creates:
        # every step after a creation is new. So one walk that creates as it
        # goes still mutates nothing when it raises.
        if op.cursor[-1].kind == MAP:
            raise StructuralConflictError("insert must target a leaf or list node")
        for step in op.cursor[:-1]:
            if step.kind == LEAF:
                raise StructuralConflictError(f"cannot descend through leaf node {step.key!r}")
        node = self.root
        for step in op.cursor:
            child = node.children.get(step.key)
            if child is None:
                child = CrdtNode(key=step.key, kind=step.kind)
                node.children[step.key] = child
            elif child.kind != step.kind:
                raise StructuralConflictError(
                    f"node {step.key!r} is a {child.kind}, operation expects a {step.kind}"
                )
            node = child
        node.values[op.id] = op.value
        self.applied.add(op.id)
        self.clock = max(self.clock, op.id)

    # ------------------------------------------------------------------
    # conversion

    def to_json(self) -> JsonValue:
        """Strip metadata and return the plain document."""
        if self.pending:
            raise IncompleteStateError(f"{len(self.pending)} operations still pending")
        if BARE_KEY in self.root.children:
            if len(self.root.children) > 1:
                raise StructuralConflictError("bare string mixed with map entries")
            return render_node(self.root.children[BARE_KEY])
        return render_node(self.root)


def render_node(node: CrdtNode) -> JsonValue:
    if node.kind == LEAF:
        # Last writer wins: greatest operation id.
        return node.values[max(node.values)]
    if node.kind == MAP:
        return {child.key: render_node(child) for child in node.children.values()}
    # List: string elements sit in values keyed by op id, container elements
    # are child subtrees keyed by the id of their first insert. Ascending
    # numeric id order interleaves both.
    entries = [(op_id, value) for op_id, value in node.values.items()]
    entries += [(int(child.key), render_node(child)) for child in node.children.values()]
    return [value for _, value in sorted(entries, key=lambda e: e[0])]


def init_empty_crdt(key: str, sample: JsonValue) -> JsonCrdt:
    """Fresh CRDT for a ledger key; sample only validates the JSON shape."""
    check_document_shape(sample)
    return JsonCrdt(key)

