import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdtsim.jsoncrdt import (
    LEAF,
    LIST,
    MAP,
    DocumentShapeError,
    StructuralConflictError,
    canonical_id,
    canonical_json_bytes,
    check_document_shape,
    init_empty_crdt,
)

TX1 = {"tempReadings": [{"temperature": "15"}]}
TX2 = {"tempReadings": [{"temperature": "20"}]}
MERGED = {"tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}


# ----------------------------------------------------------------------
# construction and clock


def test_init_empty_crdt_starts_blank():
    crdt = init_empty_crdt("Device1", TX1)
    assert crdt.key == "Device1"
    assert crdt.clock == 0
    assert crdt.applied == set()
    assert (crdt.root.kind, crdt.root.children) == (MAP, {})
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
    assert (node.kind, node.value, node.children) == (LEAF, "e23df70a", {})


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
    crdt.merge_json({"deviceID": "first", "room": {"t": "1"}})
    crdt.merge_json({"deviceID": "second", "room": {"t": "2"}})
    assert crdt.to_json() == {"deviceID": "second", "room": {"t": "2"}}
    assert crdt.root.children["deviceID"].value == "second"  # one value per leaf


def test_merge_conflict_part_way_keeps_earlier_inserts():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"a": "v"})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"b": "w", "a": {"c": "x"}, "d": "y"})
    # "b" landed before the conflict; the conflicting insert made no node and
    # ticked the clock without joining applied; "d" was never generated.
    assert crdt.clock == 3
    assert crdt.applied == {1, 2}
    assert list(crdt.root.children) == ["a", "b"]
    assert crdt.root.children["a"].children == {}
    assert crdt.to_json() == {"a": "v", "b": "w"}


def test_insert_cannot_target_a_map_node():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"m": {"n": "1"}})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"m": "v"})
    assert crdt.to_json() == {"m": {"n": "1"}}


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


def test_nodes_created_along_the_cursor():
    crdt = init_empty_crdt("Device1", TX1)
    crdt.merge_json(TX1)
    crdt.merge_json(TX2)
    assert list(crdt.root.children) == ["tempReadings"]
    list_node = crdt.root.children["tempReadings"]
    assert list_node.kind == LIST
    # one map subtree per merged element, keyed by its first insert's id
    assert list(list_node.children) == [canonical_id(1), canonical_id(2)]
    for value, node in zip(("15", "20"), list_node.children.values()):
        assert (node.kind, list(node.children)) == (MAP, ["temperature"])
        leaf = node.children["temperature"]
        assert (leaf.kind, leaf.value, leaf.children) == (LEAF, value, {})
    assert crdt.to_json() == MERGED


# ----------------------------------------------------------------------
# to_json


def test_to_json_empty_crdt_is_empty_map():
    assert init_empty_crdt("k", "s").to_json() == {}


def test_list_elements_emit_in_ascending_op_id_order():
    doc = {"l": ["a", {"b": "c"}, "d", ["e"]]}
    crdt = init_empty_crdt("k", doc)
    crdt.merge_json(doc)
    crdt.merge_json(doc)
    # string and container elements alike are leaf or subtree children keyed
    # by their first insert's id, in merge order
    assert list(crdt.root.children["l"].children) == [canonical_id(n) for n in range(1, 9)]
    assert crdt.to_json() == {"l": ["a", {"b": "c"}, "d", ["e"]] * 2}


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
