import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crdtsim import jsoncrdt
from crdtsim.jsoncrdt import (
    CrdtError,
    DocumentShapeError,
    JsonCrdt,
    StructuralConflictError,
    canonical_json_bytes,
    init_empty_crdt,
)
from reference_pipeline import (reference_json_bytes, reference_leaf_multisets, reference_merge,
                                reference_pruned_copy, reference_union)

TX1 = {"tempReadings": [{"temperature": "15"}]}
TX2 = {"tempReadings": [{"temperature": "20"}]}
MERGED = {"tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}


# ----------------------------------------------------------------------
# construction and clock


def test_init_empty_crdt_starts_blank():
    crdt = init_empty_crdt("Device1", TX1)
    assert crdt.key == "Device1"
    assert crdt.clock == 0
    assert len(crdt.applied) == 0
    assert crdt.to_json() == {}


def test_init_accepts_bare_string_sample():
    crdt = init_empty_crdt("k", "plainstring")
    assert crdt.to_json() == {}


def test_init_accepts_empty_key():
    crdt = init_empty_crdt("", TX1)
    crdt.merge_json(TX1)
    crdt.merge_json(TX2)
    assert (crdt.key, crdt.to_json(), crdt.clock) == ("", MERGED, 2)


def test_init_rejects_non_text_leaves():
    for doc in ({"temperature": 15}, {"flags": [True]}, None):
        crdt = init_empty_crdt("k", "s")
        with pytest.raises(DocumentShapeError):
            crdt.check(doc)
        with pytest.raises(DocumentShapeError):
            crdt.merge_json(doc)
        assert (crdt.to_json(), crdt.clock) == ({}, 0)


def test_init_never_reads_the_sample():
    class Unreadable(dict):
        def items(self):
            raise AssertionError("sample was read")

    crdt = init_empty_crdt("k", Unreadable(temperature=15))
    assert (crdt.key, crdt.to_json(), crdt.clock) == ("k", {}, 0)


def test_tick_clock_increments_by_one():
    crdt = init_empty_crdt("k", "s")
    for expected in (1, 2, 3):
        crdt.merge_json({f"a{expected}": "v"})
        assert crdt.clock == expected
        assert list(crdt.applied) == list(range(1, expected + 1))  # one number per leaf


def test_clock_counts_one_tick_per_generated_insert():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json(TX1)
    crdt.merge_json(TX2)
    crdt.merge_json({"a": "1", "b": {"c": "2"}, "d": ["x", "y"]})
    assert crdt.clock == len(crdt.applied) == 6


# ----------------------------------------------------------------------
# merge_json


def test_merge_single_string_entry_produces_one_op_at_its_key():
    crdt = init_empty_crdt("Device1", {"deviceID": "e23df70a"})
    crdt.merge_json({"deviceID": "e23df70a"})
    assert crdt.clock == 1
    assert crdt.to_json() == {"deviceID": "e23df70a"}


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


@pytest.mark.parametrize("held", [{}, {"a": "1"}], ids=["empty", "map"])
def test_bare_string_document_is_a_shape_error(held):
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json(held)
    for doc in ("hello", ""):
        with pytest.raises(DocumentShapeError, match="^top-level document must be a map$"):
            crdt.check(doc)
        with pytest.raises(DocumentShapeError, match="^top-level document must be a map$"):
            crdt.merge_json(doc)
        assert (crdt.to_json(), crdt.clock) == (held, len(held))


def test_same_map_key_string_resolves_last_writer_wins():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"deviceID": "first", "room": {"t": "1"}})
    crdt.merge_json({"deviceID": "second", "room": {"t": "2"}})
    assert crdt.to_json() == {"deviceID": "second", "room": {"t": "2"}}


def test_merge_conflict_part_way_changes_nothing():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"a": "v", "l": ["1"]})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"b": "w", "l": ["2"], "a": {"c": "x"}, "d": "y"})
    # "b" and "l" precede the conflict in the document, yet neither lands
    assert crdt.clock == 2
    assert crdt.to_json() == {"a": "v", "l": ["1"]}


def test_containers_without_text_leaves_are_dropped():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"a": "v", "e": [], "m": {"n": [{}]}, "l": [[], "1", {}]})
    assert crdt.to_json() == {"a": "v", "l": ["1"]}
    crdt.merge_json({"a": {}, "l": {"x": []}})  # dropped before any kind is compared
    assert crdt.to_json() == {"a": "v", "l": ["1"]}
    empty = init_empty_crdt("k", "s")
    empty.merge_json({"m": {}})
    assert (empty.to_json(), empty.clock) == ({}, 0)


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


def test_conflict_below_matching_maps_names_its_key():
    crdt = init_empty_crdt("k", TX1)
    crdt.merge_json({"m": {"n": {"o": "1"}}})
    with pytest.raises(StructuralConflictError, match="node 'o' is a leaf, insert expects a list"):
        crdt.merge_json({"m": {"n": {"o": ["2"]}}})
    assert crdt.to_json() == {"m": {"n": {"o": "1"}}}


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


def test_merging_another_document_after_a_check_checks_that_document():
    crdt = init_empty_crdt("k", "s")
    crdt.merge_json({"a": "1"})
    checked = {"b": "2"}
    crdt.check(checked)
    with pytest.raises(StructuralConflictError):
        crdt.merge_json({"a": ["x"]})
    assert (crdt.to_json(), crdt.clock) == ({"a": "1"}, 1)
    crdt.merge_json(checked)
    assert (crdt.to_json(), crdt.clock) == ({"a": "1", "b": "2"}, 2)


def test_a_merge_since_a_check_makes_merge_json_check_again():
    crdt = init_empty_crdt("k", "s")
    checked = {"m": "1"}
    crdt.check(checked)  # fits the empty document
    crdt.merge_json({"m": ["y"]})
    with pytest.raises(StructuralConflictError):
        crdt.merge_json(checked)  # no longer fits: "m" now holds a list
    assert (crdt.to_json(), crdt.clock) == ({"m": ["y"]}, 1)


def test_a_check_serves_one_merge_only():
    crdt = init_empty_crdt("k", "s")
    doc = {"l": [{"x": "1"}]}
    crdt.check(doc)
    crdt.merge_json(doc)
    crdt.merge_json(doc)
    assert (crdt.to_json(), crdt.clock) == ({"l": [{"x": "1"}, {"x": "1"}]}, 2)
    first, second = crdt.to_json()["l"]
    assert first is not second  # the second merge made its own copy


# ----------------------------------------------------------------------
# to_json


def test_to_json_empty_crdt_is_empty_map():
    assert init_empty_crdt("k", "s").to_json() == {}


def test_list_elements_keep_merge_order():
    doc = {"l": ["a", {"b": "c"}, "d", ["e"]]}
    crdt = init_empty_crdt("k", doc)
    crdt.merge_json(doc)
    crdt.merge_json({"l": [["f"], "g"]})
    crdt.merge_json(doc)
    assert crdt.to_json() == {"l": ["a", {"b": "c"}, "d", ["e"], ["f"], "g",
                                    "a", {"b": "c"}, "d", ["e"]]}


def test_canonical_json_bytes_sorts_map_keys():
    assert canonical_json_bytes({"b": "2", "a": "1"}) == b'{"a":"1","b":"2"}'
    assert canonical_json_bytes({"u": "é"}) == '{"u":"é"}'.encode("utf-8")


# Text that needs escaping or stays raw: quotes, backslashes, control
# characters, U+2028 and non-ASCII, mixed with arbitrary text.
TRICKY_TEXT = st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                                                 "\u2029", "é", "日", "\U0001f600", "a", "/"])) | st.text()
JSON_VALUES = st.recursive(
    TRICKY_TEXT | st.floats() | st.integers() | st.booleans() | st.none(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TRICKY_TEXT, children, max_size=3),
    max_leaves=10,
)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"submit_time": [1e-05, 1e300, 3.0, 0.1, 0.0, -0.0, 5e-324, 1.7976931348623157e308]})
@example({"inf": [float("inf"), -float("inf"), float("nan")], "big": [2 ** 70, -2 ** 64]})
def test_property_canonical_json_bytes_equals_sorted_compact_dumps(value):
    assert canonical_json_bytes(value) == reference_json_bytes(value)


def test_canonical_json_bytes_raises_on_a_self_referencing_list():
    """The encoder keeps no circular-reference table, so a cycle ends in
    RecursionError at the recursion limit instead of hanging."""
    loop = ["x"]
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_json_bytes(loop)


def test_check_document_shape_accepts_supported_values():
    # The reference walk, and JsonCrdt.check on a map holding the value.
    for value in ("x", ["a", ["b"], {"c": "d"}], {"k": [{"n": "1"}]}):
        assert reference_pruned_copy(value) == jsoncrdt._pruned_copy(value)
        assert JsonCrdt("k").check({"v": value}) == ({"v": value}, reference_pruned_copy(value)[1])


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
        inserts += reference_pruned_copy(doc)[1]
    assert crdt.clock == inserts
    assert len(crdt.applied) == inserts


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
        expected = reference_union(expected, doc)
    assert crdt.to_json() == expected


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

    def under_lists(doc):  # a leaf under a map keeps its latest value, so only these are equal
        return {path: leaves for path, leaves in reference_leaf_multisets(doc).items() if "[]" in path}
    assert under_lists(first.to_json()) == under_lists(second.to_json())


# Unlike DOCS: empty containers, few keys (so kinds clash) and shape errors
# (top-level lists and strings, null leaves, empty keys).
FEW_KEYS = st.sampled_from("ab")
NESTED = st.recursive(
    st.sampled_from(["", "x", "y"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(FEW_KEYS, children, max_size=3),
    max_leaves=6,
)
ANY_DOCS = st.one_of(
    st.dictionaries(FEW_KEYS, NESTED, max_size=3),
    st.sampled_from(["", "s"]),
    st.lists(NESTED, max_size=2),
    st.dictionaries(st.sampled_from(["a", ""]), st.none() | NESTED, min_size=1, max_size=2),
)


def outcome(fn, *args) -> tuple:
    """(None, what fn returns), or the type and message of the CrdtError it raises."""
    try:
        return None, fn(*args)
    except CrdtError as exc:
        return type(exc), str(exc)


def merge_outcome(crdt, merge) -> tuple:
    """outcome(merge), then crdt's document and clock."""
    return outcome(merge), canonical_json_bytes(crdt.to_json()), crdt.clock


@settings(max_examples=300)
@given(st.lists(ANY_DOCS | DOCS, max_size=6))
def test_property_merge_matches_the_reference_or_raises_and_changes_nothing(docs):
    # Each merge gives the reference's document, or its error and message
    # and leaves the document as it was; the clock counts merged leaves.
    crdt = init_empty_crdt("k", "s")
    expected, leaves = {}, 0
    for doc in docs:
        try:
            expected, leaves = reference_merge(expected, doc), leaves + reference_pruned_copy(doc)[1]
            error = None, None
        except CrdtError as exc:
            error = type(exc), str(exc)
        assert merge_outcome(crdt, lambda: crdt.merge_json(doc)) == (
            error, canonical_json_bytes(expected), leaves)


@settings(max_examples=300)
@given(st.lists(st.tuples(ANY_DOCS, st.sampled_from(["none", "same", "previous"])), max_size=6))
def test_property_a_check_before_a_merge_changes_no_outcome(steps):
    # Checking the merged document, or the one before it, first must leave
    # every merge's result or error as the reference gives it.
    crdt = init_empty_crdt("k", "s")
    expected = {}
    previous = "s"
    for doc, pre in steps:
        if pre != "none":
            try:
                crdt.check(doc if pre == "same" else previous)
            except CrdtError:
                pass
        try:
            expected = reference_merge(expected, doc)
        except CrdtError as exc:
            with pytest.raises(type(exc)):
                crdt.merge_json(doc)
        else:
            crdt.merge_json(doc)
        assert canonical_json_bytes(crdt.to_json()) == canonical_json_bytes(expected)
        previous = doc


@settings(max_examples=300)
@given(st.lists(ANY_DOCS, max_size=6))
def test_property_merging_a_check_result_equals_merging_the_document(docs):
    handed = init_empty_crdt("k", "s")
    unchecked = init_empty_crdt("k", "s")
    for doc in docs:
        assert (merge_outcome(handed, lambda: handed.merge_json(doc, checked=handed.check(doc)))
                == merge_outcome(unchecked, lambda: unchecked.merge_json(doc)))


BAD_SHAPES = st.one_of(
    ANY_DOCS,
    st.lists(st.none() | NESTED, max_size=3),
    st.dictionaries(st.sampled_from(["a", "", 1]), st.none() | st.integers() | NESTED,
                    min_size=1, max_size=3),
)


@settings(max_examples=500)
@given(BAD_SHAPES | JSON_VALUES)
@example({})
@example([])
@example({"a": {}, "b": [[], {"c": []}], "d": "x"})
@example([[[]], {"a": [{}]}, "x", [["y"]]])
@example({"a": [{"b": []}, None]})
@example({"a": [[], {"": "x"}]})
def test_property_one_pass_pruned_copy_equals_the_two_pass_walk(doc):
    # jsoncrdt._pruned_copy against the reference's two-pass walk, and
    # JsonCrdt.check, which adds the top-level rule, against the reference merge.
    assert outcome(jsoncrdt._pruned_copy, doc) == outcome(reference_pruned_copy, doc)
    assert outcome(JsonCrdt("k").check, doc) == outcome(
        lambda doc: (reference_merge({}, doc), reference_pruned_copy(doc)[1]), doc)


def _shape_error(check, doc):
    try:
        check(doc)
    except DocumentShapeError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(BAD_SHAPES | JSON_VALUES)
def test_property_check_raises_the_shape_error_decoding_raises(doc):
    # JsonCrdt.check walks the document once, copying it as it checks the
    # shape; the first error it meets is the one the reference merge meets.
    assert _shape_error(JsonCrdt("k").check, doc) == _shape_error(lambda doc: reference_merge({}, doc), doc)
