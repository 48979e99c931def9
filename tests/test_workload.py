import copy
import json
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdtsim.bench import populate_world_state, run_single
from crdtsim.jsoncrdt import DocumentShapeError, JsonCrdt, canonical_json_bytes, union
from crdtsim.ledger import BlockLog, Version, WorldState, device_skeleton_bytes
from crdtsim.txpipeline import CRDT, FABRIC, PipelineConfig, run_pipeline
from crdtsim.workload import (
    CLIENT_COUNT,
    MAX_JSON_DEPTH,
    WorkloadConfig,
    gen_stream,
    hot_keys,
    iot_chaincode,
    read_key_universe,
)
from reference_pipeline import reference_readings


def test_config_defaults_validate():
    WorkloadConfig().validate()


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        WorkloadConfig(total_txs=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(arrival_rate_tps=0.0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(conflict_pct=101.0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(n_write_keys=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(json_keys=0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(json_depth=0).validate()


def test_config_rejects_an_arrival_rate_too_small_to_schedule():
    # Proposal i is submitted at i / arrival_rate_tps; the last must be finite.
    WorkloadConfig(total_txs=1, arrival_rate_tps=5e-324).validate()
    WorkloadConfig(total_txs=2, arrival_rate_tps=1e-308).validate()
    with pytest.raises(ValueError, match=r"^arrival_rate_tps 5e-324 is too small: the last of "
                                         r"total_txs=2 proposals"):
        WorkloadConfig(total_txs=2, arrival_rate_tps=5e-324).validate()


def test_config_rejects_a_total_txs_beyond_float_range():
    # (total_txs - 1) / arrival_rate_tps raises OverflowError for an int past
    # float range; the error names the field instead.
    with pytest.raises(ValueError, match=r"^total_txs is too large: the last proposal's submit time "
                                         r"does not fit a float$"):
        WorkloadConfig(total_txs=10**309).validate()


def test_config_rejects_a_total_txs_beyond_the_largest_len():
    # gen_stream samples from range(total_txs), whose len() must fit the
    # platform's size type. sys.maxsize itself passes, and would run until
    # memory ran out, so it is not tried here.
    with pytest.raises(ValueError, match=rf"^total_txs must be at most {sys.maxsize}, the largest len\(\) "
                                         rf"on this platform, not {sys.maxsize + 1}$"):
        WorkloadConfig(total_txs=sys.maxsize + 1).validate()


def test_config_bounds_json_depth():
    WorkloadConfig(json_depth=MAX_JSON_DEPTH).validate()
    with pytest.raises(ValueError, match=r"json_depth must be within \[1, 100\], not 101"):
        WorkloadConfig(json_depth=MAX_JSON_DEPTH + 1).validate()


@pytest.mark.parametrize("mode", [CRDT, FABRIC])
def test_a_run_at_the_json_depth_bound_encodes_every_reading(mode):
    # Past the recursion limit every proposal would fail in the chaincode.
    outcome = run_single(PipelineConfig(mode=mode),
                         WorkloadConfig(total_txs=6, conflict_pct=50.0, json_depth=MAX_JSON_DEPTH))
    assert outcome.report.success_count >= 4
    assert {t.validity for t in outcome.report.txs} <= {"valid", "mvcc"}


# ----------------------------------------------------------------------
# readings


def reading_of(**shape):
    """The reading of a one-proposal stream of that shape, as the reference builds it too."""
    config = WorkloadConfig(total_txs=1, **shape)
    assert [p.args[1] for p in gen_stream(config)] == reference_readings(config)
    return gen_stream(config)[0].args[1]


def test_stream_reading_minimal_shape():
    doc = reading_of(json_keys=1, json_depth=1)
    assert set(doc) == {"temperatureRoom1"}
    (inner,) = doc["temperatureRoom1"]
    assert set(inner) == {"temperatureValue"}
    assert inner["temperatureValue"].isdigit()


def test_stream_reading_three_by_three_shape():
    doc = reading_of(json_keys=3, json_depth=3)
    assert set(doc) == {"temperatureRoom1", "temperatureRoom2", "temperatureRoom3"}
    for room in doc.values():
        (level,) = room
        assert set(level) == {"temperatureReading"}
        (deepest,) = level["temperatureReading"]
        assert set(deepest) == {"temperatureValue"}


def test_stream_reading_depth_grows_nesting():
    def depth_of(value):
        if isinstance(value, dict):
            return 1 + max(depth_of(v) for v in value.values())
        if isinstance(value, list):
            return max(depth_of(v) for v in value)
        return 0

    d1, d3, d5 = (depth_of(reading_of(json_keys=1, json_depth=depth)) for depth in (1, 3, 5))
    assert d1 < d3 < d5


def test_stream_readings_are_text_leaves():
    for p in gen_stream(WorkloadConfig(total_txs=20, json_keys=5, json_depth=5, seed=7)):
        copy, _ = JsonCrdt("k").check(p.args[1])
        assert copy == p.args[1]  # well shaped, and no container without a text leaf


def test_streams_share_no_container():
    config = WorkloadConfig(total_txs=50, json_keys=3, json_depth=3, seed=4)
    first, second = ([p.args[1] for p in gen_stream(config)] for _ in range(2))

    def containers(value):
        if isinstance(value, dict):
            return {id(value)}.union(*map(containers, value.values()))
        if isinstance(value, list):
            return {id(value)}.union(*map(containers, value))
        return set()

    assert first == second
    assert not containers(first) & containers(second)


# ----------------------------------------------------------------------
# union, the one document union: jsoncrdt's merge and the chaincode share it


@pytest.mark.parametrize("held, doc, expected", [
    ({"a": {"x": "1"}, "keep": "old"}, {"a": {"y": "2"}, "new": "n"},
     {"a": {"x": "1", "y": "2"}, "keep": "old", "new": "n"}),
    ({"l": ["1"]}, {"l": ["2"]}, {"l": ["1", "2"]}),
    ({"m": {"l": ["1"]}}, {"m": {"l": [{"t": "2"}]}}, {"m": {"l": ["1", {"t": "2"}]}}),
    ({"k": "old"}, {"k": "new"}, {"k": "new"}),
    ({"k": ["1"]}, {"k": {"a": "2"}}, {"k": {"a": "2"}}),
    ({"k": {"a": "1"}}, {"k": ["2"]}, {"k": ["2"]}),
    ({"k": {"a": "1"}}, {"k": "2"}, {"k": "2"}),
    ({"k": "1"}, {"k": {"a": "2"}}, {"k": {"a": "2"}}),
    ({"k": ["1"]}, {"k": "2"}, {"k": "2"}),
    ({"k": "1"}, {"k": ["2"]}, {"k": ["2"]}),
    ({"k": None}, {"k": ["2"]}, {"k": ["2"]}),
], ids=["maps-merge-per-key", "lists-extend", "nested-lists-extend", "leaf-takes-doc",
        "list-then-map-takes-doc", "map-then-list-takes-doc", "map-then-leaf-takes-doc",
        "leaf-then-map-takes-doc", "list-then-leaf-takes-doc", "leaf-then-list-takes-doc",
        "null-takes-doc"])
def test_union_changes_held_in_place_and_leaves_doc_unchanged(held, doc, expected):
    doc_before = copy.deepcopy(doc)
    assert union(held, doc) is held
    assert held == expected
    assert doc == doc_before


# ----------------------------------------------------------------------
# chaincode


def test_chaincode_reads_and_writes_configured_key_counts():
    config = WorkloadConfig(n_read_keys=2, n_write_keys=1)
    cc = iot_chaincode(config)
    reading = reading_of()
    rwset = cc.fn((("a", "b", "c"), reading), WorldState().snapshot())
    assert [r.key for r in rwset.reads] == ["a", "b"]
    assert [w.key for w in rwset.writes] == ["a"]
    assert all(w.is_crdt for w in rwset.writes)


def test_chaincode_fresh_device_starts_from_skeleton():
    config = WorkloadConfig()
    reading = {"temperatureRoom1": [{"temperatureValue": "7"}]}
    rwset = iot_chaincode(config).fn((("dev",), reading), WorldState().snapshot())
    assert rwset.reads[0].version is None
    assert json.loads(rwset.writes[0].value) == {
        "deviceID": "dev", "temperatureRoom1": [{"temperatureValue": "7"}]}


def test_chaincode_appends_to_stored_document():
    config = WorkloadConfig()
    ws = WorldState()
    stored = {"deviceID": "dev", "temperatureRoom1": [{"temperatureValue": "1"}]}
    ws._put("dev", canonical_json_bytes(stored), Version(0, 0))
    reading = {"temperatureRoom1": [{"temperatureValue": "2"}]}
    rwset = iot_chaincode(config).fn((("dev",), reading), ws.snapshot())
    assert rwset.reads[0].version == Version(0, 0)
    assert json.loads(rwset.writes[0].value) == {
        "deviceID": "dev",
        "temperatureRoom1": [{"temperatureValue": "1"}, {"temperatureValue": "2"}],
    }


def test_chaincode_fails_on_stored_bytes_that_are_not_json():
    ws = WorldState()
    ws._put("dev", b"{not json", Version(0, 0))
    with pytest.raises(DocumentShapeError, match="not a JSON document"):
        iot_chaincode(WorkloadConfig()).fn((("dev",), {"t": "1"}), ws.snapshot())


@pytest.mark.parametrize("surplus_reads", [0, 2])
@pytest.mark.parametrize("policy", ["batch", "fresh"])
@pytest.mark.parametrize("mode", [CRDT, FABRIC])
def test_a_run_leaves_every_proposals_reading_unchanged(mode, policy, surplus_reads):
    # The chaincode unions each reading into its own parse of a stored
    # document, once per written key; readings are read again after the run.
    # Surplus reads are keys read but not written.
    workload = WorkloadConfig(total_txs=40, conflict_pct=50.0, n_read_keys=2 + surplus_reads,
                              n_write_keys=2, json_keys=2, json_depth=3, seed=3)
    stream = gen_stream(workload)
    readings = copy.deepcopy([p.args[1] for p in stream])
    ws, log = WorldState(), BlockLog()
    pipeline = PipelineConfig(mode=mode, snapshot_policy=policy, max_tx_count=5)
    populate_world_state(ws, log, pipeline, read_key_universe(workload, stream))
    report = run_pipeline(pipeline, stream, iot_chaincode(workload), ws=ws, log=log)
    assert report.success_count > 1
    assert [p.args[1] for p in stream] == readings


class CountingState(WorldState):
    """A state that counts its lookups per key."""

    def __init__(self):
        super().__init__()
        self.lookups = Counter()

    def get_state(self, key):
        self.lookups[key] += 1
        return super().get_state(key)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.integers(1, 4).flatmap(lambda w: st.tuples(st.integers(w, 6), st.just(w))),
    n_keys=st.integers(0, 7),
    stored=st.sets(st.integers(0, 6)),
)
def test_property_chaincode_reads_each_key_once_and_every_written_key(widths, n_keys, stored):
    n_read_keys, n_write_keys = widths
    config = WorkloadConfig(n_read_keys=n_read_keys, n_write_keys=n_write_keys)
    config.validate()
    keys = tuple(f"dev-{j}" for j in range(n_keys))
    snap = CountingState()
    for j in sorted(stored):
        if j < n_keys:
            snap._put(keys[j], device_skeleton_bytes(keys[j]), Version(0, j))
    rwset = iot_chaincode(config).fn((keys, {"t": "1"}), snap)
    read_keys = [r.key for r in rwset.reads]
    write_keys = [w.key for w in rwset.writes]
    assert read_keys == list(keys[:n_read_keys])
    assert write_keys == list(keys[:n_write_keys])
    assert set(write_keys) <= set(read_keys)
    assert all(write.is_crdt for write in rwset.writes)
    assert snap.lookups == Counter(read_keys)
    for read in rwset.reads:
        entry = snap.get_state(read.key)
        assert read.version == (entry[1] if entry is not None else None)


# ----------------------------------------------------------------------
# stream generation


def test_stream_pacing_and_clients():
    config = WorkloadConfig(total_txs=10, arrival_rate_tps=300.0)
    proposals = gen_stream(config)
    assert len(proposals) == 10
    assert proposals[3].submit_time == pytest.approx(3 / 300.0)
    assert proposals[-1].submit_time == pytest.approx(9 / 300.0)
    assert [p.client_id for p in proposals[:5]] == [
        "client1", "client2", "client3", "client4", "client1"]
    assert CLIENT_COUNT == 4


def drawn_value(room):
    """The temperature text at the end of a room list's chain."""
    (node,) = room
    while "temperatureReading" in node:
        (node,) = node["temperatureReading"]
    return node["temperatureValue"]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("shape", [
    dict(total_txs=300, conflict_pct=100.0, json_keys=3, json_depth=3),
    dict(total_txs=300, conflict_pct=20.0, n_read_keys=2, n_write_keys=2),
    dict(total_txs=300, conflict_pct=50.0, n_read_keys=3, json_keys=2, json_depth=2),
    dict(total_txs=40, conflict_pct=50.0, json_keys=4, json_depth=6),
], ids=["hot", "fresh", "mixed", "deep"])
def test_stream_readings_equal_fresh_ones_built_from_the_same_draws(shape, seed):
    config = WorkloadConfig(seed=seed, **shape)
    assert [p.args[1] for p in gen_stream(config)] == reference_readings(config)


def test_stream_readings_that_drew_one_value_hold_one_room_list():
    stream = gen_stream(WorkloadConfig(total_txs=200, conflict_pct=50.0, json_keys=2, json_depth=3, seed=5))
    first = {}  # drawn value -> the first room list seen for it
    for p in stream:
        for room in p.args[1].values():
            assert room is first.setdefault(drawn_value(room), room)
    assert len(first) > 1


def test_a_mixed_stream_holds_at_most_one_room_list_per_temperature():
    # rng.randint(0, 40) draws one of 41 values; crdt-mixed makes 6,000 draws.
    stream = gen_stream(WorkloadConfig(total_txs=3000, conflict_pct=50.0, n_read_keys=3,
                                       json_keys=2, json_depth=2, seed=1))
    assert len({id(room) for p in stream for room in p.args[1].values()}) <= 41


def test_stream_readings_with_equal_draws_hold_one_reading_map():
    stream = gen_stream(WorkloadConfig(total_txs=200, conflict_pct=50.0, json_keys=2, json_depth=3, seed=5))
    first = {}  # drawn values, in room order -> the first reading map seen for them
    for p in stream:
        reading = p.args[1]
        assert reading is first.setdefault(tuple(map(drawn_value, reading.values())), reading)
    assert len(first) < len(stream)


def test_a_fresh_stream_holds_at_most_one_reading_map_per_temperature():
    # fabric-fresh's shape: one room, so a reading is one of 41 draws.
    stream = gen_stream(WorkloadConfig(total_txs=3000, conflict_pct=20.0, n_read_keys=2, n_write_keys=2,
                                       json_keys=1, json_depth=1, seed=1))
    assert len({id(p.args[1]) for p in stream}) <= 41


def test_stream_shares_room_keys_client_ids_and_equal_readings_but_not_args():
    # 200 draws over 41 * 41 room pairs: some readings repeat, and equal
    # readings are one map.
    config = WorkloadConfig(total_txs=200, conflict_pct=50.0, json_keys=2)
    stream = gen_stream(config)
    assert len({id(p.client_id) for p in stream}) == CLIENT_COUNT
    assert len({id(key) for p in stream for key in p.args[1]}) == config.json_keys
    # Tracing tells proposals apart by id(args): each args tuple is its own.
    assert len({id(p.args[1]) for p in stream}) < len({id(p.args) for p in stream}) == len(stream)


def test_stream_conflict_share_is_exact():
    config = WorkloadConfig(total_txs=200, conflict_pct=25.0)
    proposals = gen_stream(config)
    hot = set(hot_keys(config))
    conflicting = sum(1 for p in proposals if hot <= set(p.args[0]))
    assert conflicting == 50


def test_stream_extremes_all_or_none_conflict():
    all_hot = gen_stream(WorkloadConfig(total_txs=40, conflict_pct=100.0))
    hot = set(hot_keys(WorkloadConfig()))
    assert all(hot <= set(p.args[0]) for p in all_hot)
    none_hot = gen_stream(WorkloadConfig(total_txs=40, conflict_pct=0.0))
    assert not any(set(p.args[0]) & hot for p in none_hot)


def test_stream_unique_keys_never_collide():
    config = WorkloadConfig(total_txs=50, conflict_pct=0.0, n_read_keys=2, n_write_keys=2)
    proposals = gen_stream(config)
    seen = set()
    for p in proposals:
        keys = set(p.args[0])
        assert not keys & seen
        seen |= keys


def test_stream_is_seed_reproducible():
    config = WorkloadConfig(total_txs=30, conflict_pct=50.0, json_keys=3, json_depth=4, seed=9)
    first = gen_stream(config)
    second = gen_stream(replace(config))
    assert first == second
    different = gen_stream(replace(config, seed=10))
    assert first != different


def test_gen_iot_json_is_seed_deterministic():
    # Two streams of one seed draw byte-equal 3-room, depth-4 readings.
    config = WorkloadConfig(total_txs=5, json_keys=3, json_depth=4, seed=99)
    a = [p.args[1] for p in gen_stream(config)]
    b = [p.args[1] for p in gen_stream(replace(config))]
    assert [canonical_json_bytes(doc) for doc in a] == [canonical_json_bytes(doc) for doc in b]


def test_stream_conflicting_writes_stay_on_hot_set():
    # surplus read width must not widen the shared write target
    config = WorkloadConfig(total_txs=6, n_read_keys=3, n_write_keys=1, conflict_pct=100.0)
    hot = hot_keys(config)
    seen_fillers = set()
    for p in gen_stream(config):
        keys = p.args[0]
        assert list(keys[: config.n_write_keys]) == hot
        filler = set(keys[config.n_write_keys :])
        assert not filler & set(hot)
        assert not filler & seen_fillers
        seen_fillers |= filler


def test_stream_key_width_covers_reads_and_writes():
    config = WorkloadConfig(total_txs=4, n_read_keys=3, n_write_keys=1, conflict_pct=100.0)
    proposals = gen_stream(config)
    assert all(len(p.args[0]) == 3 for p in proposals)
    config_w = WorkloadConfig(total_txs=4, n_read_keys=3, n_write_keys=3, conflict_pct=0.0)
    assert all(len(p.args[0]) == 3 for p in gen_stream(config_w))
    with pytest.raises(ValueError, match="n_write_keys=3 and n_read_keys=1"):
        gen_stream(WorkloadConfig(total_txs=4, n_read_keys=1, n_write_keys=3))


def test_read_key_universe_covers_hot_and_unique_keys():
    config = WorkloadConfig(total_txs=6, conflict_pct=50.0)
    proposals = gen_stream(config)
    universe = read_key_universe(config, proposals)
    assert sorted(universe) == universe
    expected = set()
    for p in proposals:
        expected.update(p.args[0][: config.n_read_keys])
    assert set(universe) == expected


@pytest.mark.parametrize("n_read_keys, n_write_keys", [(0, 1), (1, 2), (2, 3), (0, 0)])
def test_config_rejects_read_widths_below_write_widths(n_read_keys, n_write_keys):
    # The chaincode reads each document it writes, so a narrower read set,
    # which would let a write escape MVCC, is refused.
    with pytest.raises(ValueError, match="the chaincode reads each document it writes") as info:
        WorkloadConfig(n_read_keys=n_read_keys, n_write_keys=n_write_keys).validate()
    assert f"n_read_keys={n_read_keys}" in str(info.value)


def test_device_skeleton_names_the_device():
    assert json.loads(device_skeleton_bytes("dev-1")) == {"deviceID": "dev-1"}

