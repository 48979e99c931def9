import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdtsim.jsoncrdt import (
    LEAF,
    LIST,
    MAP,
    CursorElement,
    DocumentShapeError,
    DuplicateOperationError,
    IncompleteStateError,
    Operation,
    StructuralConflictError,
    canonical_id,
    canonical_json_bytes,
    check_document_shape,
    init_empty_crdt,
)

TX1 = {"tempReadings": [{"temperature": "15"}]}
TX2 = {"tempReadings": [{"temperature": "20"}]}
MERGED = {"tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}


def make_op(op_id, cursor, value, deps=()):
    return Operation(id=op_id, deps=frozenset(deps), cursor=cursor, value=value)


# ----------------------------------------------------------------------
# construction and clock


def test_init_empty_crdt_starts_blank():
    crdt = init_empty_crdt("Device1", TX1)
    assert crdt.key == "Device1"
    assert crdt.clock == 0
    assert crdt.applied == set()
    assert crdt.pending == []
    assert crdt.to_json() == {}


def test_init_accepts_bare_string_sample():
    crdt = init_empty_crdt("k", "plainstring")
    assert crdt.to_json() == {}


def test_init_rejects_empty_key():
    with pytest.raises(ValueError):
        init_empty_crdt("", TX1)


def test_init_rejects_non_text_leaves():
    with pytest.raises(DocumentShapeError):
        init_empty_crdt("k", {"temperature": 15})
    with pytest.raises(DocumentShapeError):
        init_empty_crdt("k", {"flags": [True]})
    with pytest.raises(DocumentShapeError):
        init_empty_crdt("k", None)


def test_tick_clock_increments_by_one():
    crdt = init_empty_crdt("k", "s")
    for expected in (1, 2, 3):
        crdt.merge_json({f"a{expected}": "v"})
        assert crdt.clock == expected
        assert max(crdt.applied) == expected  # the new insert carries the clock value


def test_clock_counts_one_tick_per_generated_insert():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json(TX1)
    crdt.merge_json(TX2)
    crdt.merge_json({"a": "1", "b": {"c": "2"}, "d": ["x", "y"]})
    assert crdt.clock == len(crdt.applied) == 6


def test_canonical_id_orders_lexicographically():
    ids = [canonical_id(n) for n in (1, 9, 10, 99, 100, 12345)]
    assert ids == sorted(ids)


def test_list_container_elements_are_keyed_by_the_next_clock_id():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"a": "1", "l": [{"t": "2"}, ["3"]]})
    assert list(crdt.root.children["l"].children) == [canonical_id(2), canonical_id(3)]


# ----------------------------------------------------------------------
# merge_json


def test_merge_single_string_entry_produces_one_op_at_its_key():
    crdt = init_empty_crdt("Device1", {"deviceID": "e23df70a"})
    crdt.merge_json({"deviceID": "e23df70a"})
    assert crdt.clock == 1
    assert crdt.to_json() == {"deviceID": "e23df70a"}
    node = crdt.root.children["deviceID"]
    assert node.kind == LEAF
    assert node.values == {1: "e23df70a"}


def test_merge_listing_pair_converges_to_both_readings():
    crdt = init_empty_crdt("Device1", TX1)
    crdt.merge_json(TX1)
    assert crdt.to_json() == TX1
    crdt.merge_json(TX2)
    assert crdt.to_json() == MERGED


def test_merge_is_deterministic_across_instances():
    docs = [TX1, TX2, {"deviceID": "abc"}, {"tempReadings": [{"temperature": "7"}]}]
    a = init_empty_crdt("Device1", TX1)
    b = init_empty_crdt("Device1", TX1)
    for doc in docs:
        a.merge_json(doc)
        b.merge_json(doc)
    assert canonical_json_bytes(a.to_json()) == canonical_json_bytes(b.to_json())


def test_merge_rejects_non_text_leaves():
    crdt = init_empty_crdt("k", TX1)
    with pytest.raises(DocumentShapeError):
        crdt.merge_json({"temperature": 25})
    with pytest.raises(DocumentShapeError):
        crdt.merge_json({"nested": [{"x": 1.5}]})
    assert crdt.to_json() == {}


def test_merge_rejects_top_level_list():
    crdt = init_empty_crdt("k", TX1)
    with pytest.raises(DocumentShapeError):
        crdt.merge_json(["a", "b"])


def test_merge_rejects_empty_map_keys():
    crdt = init_empty_crdt("k", TX1)
    with pytest.raises(DocumentShapeError):
        crdt.merge_json({"": "x"})


def test_bare_string_document_round_trips():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json("hello")
    assert crdt.to_json() == "hello"
    crdt.merge_json("world")
    assert crdt.to_json() == "world"  # later insert wins the register


def test_bare_string_and_map_documents_conflict():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json("hello")
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"a": "1"})
    other = init_empty_crdt("k", "s")
    other.merge_json({"a": "1"})
    with pytest.raises(StructuralConflictError):
        other.merge_json("hello")


def test_same_map_key_string_resolves_last_writer_wins():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"deviceID": "first"})
    crdt.merge_json({"deviceID": "second"})
    assert crdt.to_json() == {"deviceID": "second"}


def test_leaf_reused_as_container_is_a_structural_conflict():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"a": "1"})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"a": ["x"]})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"a": {"b": "x"}})


def test_list_reused_as_leaf_is_a_structural_conflict():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"a": ["x"]})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"a": "1"})


def test_duplicate_list_values_are_kept_by_default():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"readings": ["7"]})
    crdt.merge_json({"readings": ["7"]})
    assert crdt.to_json() == {"readings": ["7", "7"]}


def test_merge_chains_dependencies_per_top_level_key():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"room": [{"v": "1"}, {"v": "2"}], "other": "x"})
    ops = {op_id: None for op_id in sorted(crdt.applied)}
    assert list(ops) == [1, 2, 3]
    # within "room" the second insert depends on the first; "other" starts fresh


def test_nested_lists_round_trip():
    doc = {"grid": [["1", "2"], ["3"]], "mixed": ["a", {"b": "c"}, ["d"]]}
    crdt = init_empty_crdt("k", doc)
    crdt.merge_json(doc)
    assert crdt.to_json() == doc


def test_multi_key_map_elements_stay_joined():
    doc = {"k": [{"a": "1", "b": "2"}]}
    crdt = init_empty_crdt("k", doc)
    crdt.merge_json(doc)
    assert crdt.to_json() == doc
    crdt.merge_json({"k": [{"a": "3"}]})
    assert crdt.to_json() == {"k": [{"a": "1", "b": "2"}, {"a": "3"}]}


# ----------------------------------------------------------------------
# apply_operation


def test_apply_op_with_no_deps_lands_immediately():
    crdt = init_empty_crdt("k", "s")
    op = make_op(1, (CursorElement(LEAF, "a"),), "v")
    crdt.apply_operation(op)
    assert crdt.applied == {1}
    assert crdt.pending == []
    assert crdt.to_json() == {"a": "v"}


def test_apply_queues_until_dependencies_arrive():
    crdt = init_empty_crdt("k", "s")
    op_b = make_op(2, (CursorElement(LEAF, "b"),), "vb", deps=(1,))
    crdt.apply_operation(op_b)
    assert crdt.pending == [op_b]
    assert crdt.applied == set()
    assert crdt.root.children == {}  # nothing observable before deps apply
    op_a = make_op(1, (CursorElement(LEAF, "a"),), "va")
    crdt.apply_operation(op_a)
    assert crdt.applied == {1, 2}
    assert crdt.pending == []
    assert crdt.to_json() == {"a": "va", "b": "vb"}


def test_pending_chain_drains_in_one_cascade():
    crdt = init_empty_crdt("k", "s")
    crdt.apply_operation(make_op(3, (CursorElement(LEAF, "c"),), "3", deps=(2,)))
    crdt.apply_operation(make_op(2, (CursorElement(LEAF, "b"),), "2", deps=(1,)))
    assert len(crdt.pending) == 2
    crdt.apply_operation(make_op(1, (CursorElement(LEAF, "a"),), "1"))
    assert crdt.applied == {1, 2, 3}
    assert crdt.pending == []


def test_reapplying_an_id_is_rejected_without_state_change():
    crdt = init_empty_crdt("k", "s")
    op = make_op(1, (CursorElement(LEAF, "a"),), "v")
    crdt.apply_operation(op)
    before = canonical_json_bytes(crdt.to_json())
    with pytest.raises(DuplicateOperationError):
        crdt.apply_operation(op)
    assert canonical_json_bytes(crdt.to_json()) == before
    assert crdt.applied == {1}


def test_pending_id_counts_as_seen():
    crdt = init_empty_crdt("k", "s")
    op = make_op(5, (CursorElement(LEAF, "a"),), "v", deps=(1,))
    crdt.apply_operation(op)
    with pytest.raises(DuplicateOperationError):
        crdt.apply_operation(make_op(5, (CursorElement(LEAF, "b"),), "w", deps=(1,)))


def test_apply_rejects_empty_cursor_and_bad_deps():
    crdt = init_empty_crdt("k", "s")
    with pytest.raises(ValueError):
        crdt.apply_operation(make_op(1, (), "v"))
    with pytest.raises(ValueError):
        crdt.apply_operation(make_op(1, (CursorElement(LEAF, "a"),), "v", deps=(1,)))


def test_apply_structural_conflict_leaves_state_untouched():
    crdt = init_empty_crdt("k", "s")
    crdt.apply_operation(make_op(1, (CursorElement(LEAF, "a"),), "v"))
    bad = make_op(2, (CursorElement(MAP, "a"), CursorElement(LEAF, "b")), "w")
    with pytest.raises(StructuralConflictError):
        crdt.apply_operation(bad)
    assert crdt.applied == {1}
    assert crdt.to_json() == {"a": "v"}


@pytest.mark.parametrize("cursor", [
    (CursorElement(LEAF, "a"), CursorElement(LEAF, "b")),
    (CursorElement(MAP, "m"), CursorElement(MAP, "n")),
])
def test_apply_conflict_past_a_missing_node_leaves_state_untouched(cursor):
    crdt = init_empty_crdt("k", "s")
    with pytest.raises(StructuralConflictError):
        crdt.apply_operation(make_op(1, cursor, "v"))
    assert crdt.root.children == {}
    assert crdt.applied == set()


def test_insert_cannot_target_a_map_node():
    crdt = init_empty_crdt("k", "s")
    with pytest.raises(StructuralConflictError):
        crdt.apply_operation(make_op(1, (CursorElement(MAP, "m"),), "v"))


def test_remote_op_lifts_the_clock():
    crdt = init_empty_crdt("k", "s")
    crdt.apply_operation(make_op(10, (CursorElement(LEAF, "a"),), "v"))
    assert crdt.clock == 10
    crdt.merge_json({"b": "w"})  # next local insert must not collide
    assert crdt.clock == 11


def test_nodes_created_along_the_cursor():
    crdt = init_empty_crdt("Device1", TX1)
    crdt.merge_json(TX1)
    crdt.merge_json(TX2)
    assert list(crdt.root.children) == ["tempReadings"]
    list_node = crdt.root.children["tempReadings"]
    assert list_node.kind == LIST
    assert list_node.values == {}
    # one map subtree per merged element, keyed by its first insert's id
    assert list(list_node.children) == [canonical_id(1), canonical_id(2)]
    for op_id, node in zip((1, 2), list_node.children.values()):
        assert node.kind == MAP
        leaf = node.children["temperature"]
        assert (leaf.kind, list(leaf.values)) == (LEAF, [op_id])
    assert crdt.to_json() == MERGED


# ----------------------------------------------------------------------
# to_json


def test_to_json_empty_crdt_is_empty_map():
    assert init_empty_crdt("k", "s").to_json() == {}


def test_to_json_refuses_while_pending():
    crdt = init_empty_crdt("k", "s")
    crdt.apply_operation(make_op(2, (CursorElement(LEAF, "b"),), "v", deps=(1,)))
    with pytest.raises(IncompleteStateError):
        crdt.to_json()


def test_list_elements_emit_in_ascending_op_id_order():
    crdt = init_empty_crdt("k", "s")
    # string elements applied out of numeric order still sort by id
    crdt.apply_operation(make_op(5, (CursorElement(LIST, "l"),), "late"))
    crdt.apply_operation(make_op(7, (CursorElement(LIST, "l"),), "later"))
    crdt.apply_operation(make_op(6, (CursorElement(LIST, "l"),), "mid"))
    assert crdt.to_json() == {"l": ["late", "mid", "later"]}


def test_canonical_json_bytes_sorts_map_keys():
    assert canonical_json_bytes({"b": "2", "a": "1"}) == b'{"a":"1","b":"2"}'
    assert canonical_json_bytes({"u": "é"}) == '{"u":"é"}'.encode("utf-8")


def test_check_document_shape_accepts_supported_values():
    check_document_shape("x")
    check_document_shape(["a", ["b"], {"c": "d"}])
    check_document_shape({"k": [{"n": "1"}]})


# ----------------------------------------------------------------------
# properties

KEYS = st.text(alphabet="abcdexyz", min_size=1, max_size=3)
LEAVES = st.text(alphabet="0123456789", max_size=3)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3),
        st.dictionaries(KEYS, children, min_size=1, max_size=3),
    ),
    max_leaves=8,
)
DOCS = st.dictionaries(KEYS, VALUES, min_size=1, max_size=3)


@given(DOCS)
def test_property_single_document_round_trips(doc):
    crdt = init_empty_crdt("k", doc)
    crdt.merge_json(doc)
    assert crdt.to_json() == doc


@given(st.lists(DOCS, min_size=1, max_size=4))
def test_property_identical_sequences_converge_bytewise(docs):
    a = init_empty_crdt("k", docs[0])
    b = init_empty_crdt("k", docs[0])
    try:
        for doc in docs:
            a.merge_json(doc)
    except StructuralConflictError:
        return  # conflicting shapes raise identically on both instances
    for doc in docs:
        b.merge_json(doc)
    assert canonical_json_bytes(a.to_json()) == canonical_json_bytes(b.to_json())


@given(st.lists(DOCS, min_size=1, max_size=4))
def test_property_clock_equals_generated_inserts(docs):
    crdt = init_empty_crdt("k", docs[0])
    inserts = 0
    for doc in docs:
        try:
            crdt.merge_json(doc)
        except StructuralConflictError:
            return
        inserts += sum(1 for _ in _iter_leaves(doc))
    assert crdt.clock == inserts
    assert len(crdt.applied) == inserts


def _iter_leaves(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _iter_leaves(item)
    else:
        for item in value.values():
            yield from _iter_leaves(item)


def _list_multisets(value, path=(), acc=None):
    # multiset of canonicalized elements for every list in the document
    if acc is None:
        acc = {}
    if isinstance(value, list):
        bucket = acc.setdefault(path, {})
        for item in value:
            blob = canonical_json_bytes(item)
            bucket[blob] = bucket.get(blob, 0) + 1
        for item in value:
            _list_multisets(item, path + ("[]",), acc)
    elif isinstance(value, dict):
        for key, item in value.items():
            _list_multisets(item, path + (key,), acc)
    return acc


@settings(max_examples=60)
@given(DOCS, DOCS)
def test_property_merge_order_keeps_list_contents_as_multisets(d1, d2):
    first = init_empty_crdt("k", d1)
    second = init_empty_crdt("k", d1)
    try:
        first.merge_json(d1)
        first.merge_json(d2)
    except StructuralConflictError:
        return
    second.merge_json(d2)
    second.merge_json(d1)
    assert _list_multisets(first.to_json()) == _list_multisets(second.to_json())


def _union(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = _union(out[key], value) if key in out else value
        return out
    if isinstance(a, list) and isinstance(b, list):
        return a + b
    return b


@given(st.lists(DOCS, min_size=2, max_size=3))
def test_property_merge_matches_sequential_union(docs):
    crdt = init_empty_crdt("k", docs[0])
    expected = docs[0]
    try:
        for doc in docs:
            crdt.merge_json(doc)
    except StructuralConflictError:
        return
    for doc in docs[1:]:
        expected = _union(expected, doc)
    assert crdt.to_json() == expected
