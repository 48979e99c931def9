import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crdtsim
from crdtsim.bench import METRIC_COLUMNS
from crdtsim.cli import main
from crdtsim.jsoncrdt import canonical_json_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest_of(out, fmt="csv"):
    last = out.strip().splitlines()[-1]
    if fmt == "json-lines":
        return json.loads(last)["digest"]
    assert last.startswith("digest,")
    return last.split(",", 1)[1]


RUN_AND_REPLAY = """
import sys
from crdtsim.cli import main
path = sys.argv[1]
assert main(["run", "--mode", "crdt", "--txs", "8", "--save-blocklog", path]) == 0
assert main(["replay", path]) == 0
print(sorted({"hashlib", "_hashlib", "statistics", "fractions", "decimal"} & set(sys.modules)))
"""


def test_a_run_and_its_replay_load_neither_openssl_nor_statistics(tmp_path):
    # hashlib loads OpenSSL's libcrypto, 3.65 MB for each command and benchmark
    # worker; statistics loads fractions and decimal, about 0.7 MB. A fresh
    # interpreter, as this one may hold them, and one that runs the commands,
    # as a module imported inside a function (WorldState.digest) loads only then.
    src = str(Path(crdtsim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", RUN_AND_REPLAY, str(tmp_path / "run.blk")],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout.splitlines()
    run_digest, replay_digest = [line for line in out if line.startswith("digest,")]
    assert run_digest == replay_digest
    assert out[-1] == "[]"


# ----------------------------------------------------------------------
# run


def test_run_prints_report_and_digest(capsys):
    code, out, err = run_cli(capsys, "run", "--txs", "8", "--mode", "crdt")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "tx_id,submit_time,commit_time,validity,block_height"
    assert lines[-2].startswith("summary,")
    assert len(digest_of(out)) == 64


def test_run_json_lines_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--txs", "5", "--format", "json-lines")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["tx_id"].startswith("client1-")
    assert "summary" in lines[-2]
    assert "digest" in lines[-1]


def test_run_writes_report_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "run", "--txs", "5", "--out", str(out_file))
    assert code == 0
    assert out.startswith("digest,")  # stdout carries only the digest
    content = out_file.read_text().splitlines()
    assert content[0] == "tx_id,submit_time,commit_time,validity,block_height"
    assert len(content) == 5 + 2  # transactions, header, summary


def test_run_mode_changes_outcomes(capsys):
    _, crdt_out, _ = run_cli(capsys, "run", "--txs", "10", "--mode", "crdt")
    _, fabric_out, _ = run_cli(capsys, "run", "--txs", "10", "--mode", "fabric")
    crdt_summary = [l for l in crdt_out.splitlines() if l.startswith("summary,")][0]
    fabric_summary = [l for l in fabric_out.splitlines() if l.startswith("summary,")][0]
    assert crdt_summary.split(",")[3] == "10"  # every conflicting writer commits
    assert fabric_summary.split(",")[3] == "1"  # strict matching admits one


def test_run_is_reproducible_for_a_seed(capsys):
    _, first, _ = run_cli(capsys, "run", "--txs", "6", "--seed", "5")
    _, second, _ = run_cli(capsys, "run", "--txs", "6", "--seed", "5")
    assert digest_of(first) == digest_of(second)
    _, third, _ = run_cli(capsys, "run", "--txs", "6", "--seed", "6")
    assert digest_of(first) != digest_of(third)


def test_run_rejects_bad_flags(capsys):
    code, _, err = run_cli(capsys, "run", "--txs", "0")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, field", [("--block-timeout-ms", "block_timeout_ms"),
                                         ("--arrival-rate", "arrival_rate_tps")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_rejects_a_non_finite_flag(capsys, flag, field, value):
    code, out, err = run_cli(capsys, "run", "--mode", "crdt", "--txs", "30", "--seed", "1",
                             flag, value)
    assert (code, out, err) == (1, "", f"error: {field} must be finite, not {value}\n")


def test_run_rejects_an_arrival_rate_too_small_to_schedule(capsys):
    # Proposal i is submitted at i / rate: at 5e-324 tx/s proposal 1 would be
    # submitted, and committed, at time inf.
    code, out, err = run_cli(capsys, "run", "--txs", "3", "--arrival-rate", "5e-324")
    assert (code, out) == (1, "")
    assert err == ("error: arrival_rate_tps 5e-324 is too small: the last of total_txs=3 "
                   "proposals would be submitted at time inf\n")
    code, out, _ = run_cli(capsys, "run", "--txs", "1", "--arrival-rate", "5e-324")
    assert code == 0 and "nan" not in out


def test_run_rejects_a_total_txs_beyond_float_range(capsys):
    # Not the OverflowError of (total_txs - 1) / arrival_rate_tps, which names no field.
    code, out, err = run_cli(capsys, "run", "--txs", "1" + "0" * 309)
    assert (code, out) == (1, "")
    assert err == "error: total_txs is too large: the last proposal's submit time does not fit a float\n"


def test_run_rejects_a_total_txs_beyond_the_largest_len(capsys):
    # Not the bare "Python int too large to convert to C ssize_t" of rng.sample.
    code, out, err = run_cli(capsys, "run", "--txs", str(sys.maxsize + 1), "--conflict-pct", "0")
    assert (code, out) == (1, "")
    assert err == (f"error: total_txs must be at most {sys.maxsize}, the largest len() on this platform, "
                   f"not {sys.maxsize + 1}\n")


# ----------------------------------------------------------------------
# seed precedence


def test_the_environment_does_not_change_a_run(capsys, monkeypatch):
    _, plain, _ = run_cli(capsys, "run", "--txs", "6")
    monkeypatch.setenv("CRDTSIM_SEED", "5")
    _, env_out, _ = run_cli(capsys, "run", "--txs", "6")
    assert env_out == plain


def test_config_file_seed_is_used(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"workload": {"seed": 5}}))
    _, out, _ = run_cli(capsys, "run", "--txs", "6", "--config", str(cfg))
    _, reference, _ = run_cli(capsys, "run", "--txs", "6", "--seed", "5")
    _, plain, _ = run_cli(capsys, "run", "--txs", "6")
    assert digest_of(out) == digest_of(reference) != digest_of(plain)


def test_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"pipeline": {"mode": "fabric"}, "workload": {"total_txs": 10}}))
    _, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--mode", "crdt")
    summary = [l for l in out.splitlines() if l.startswith("summary,")][0]
    assert summary.split(",")[3] == "10"  # crdt mode commits all ten
    assert summary.split(",")[4] == "0"


@pytest.mark.parametrize("content, field", [
    (b'{"workload": {"seed": 5}', "not a UTF-8 JSON file"),
    (b'[{"workload": {"seed": 5}}]', "top level must be a JSON object"),
    (b'{"visualization": {}}', "unknown section 'visualization'"),
    (b'{"pipeline": {"warp": 9}}', "'warp'"),
    (b'{"pipeline": {"max_tx_count": "soon"}}', "'max_tx_count'"),
    (b'{"pipeline": {"max_tx_count": true}}', "'max_tx_count'"),
    (b'{"workload": {"crdt_writes": true}}', "'crdt_writes' is not a WorkloadConfig field"),
    (b'{"pipeline": {"orgs": "org1"}}', "'orgs'"),
    (b'{"workload": {"conflict_pct": 500}}', "conflict_pct must be within [0, 100], not 500"),
    (b'{"pipeline": {"orgs": []}}', "orgs must name at least one org"),
    (b'{"pipeline": {"block_timeout_ms": NaN}}', "block_timeout_ms must be finite, not nan"),
    (b'{"workload": {"arrival_rate_tps": Infinity}}', "arrival_rate_tps must be finite, not inf"),
    (b'{"pipeline": {"orgs": ["org1", "\\udc80"]}}', "orgs must be UTF-8 text"),
    (b'{"pipeline": {"endorsement_k": 1}}', "'endorsement_k' is not a PipelineConfig field"),
    (b'{"workload": {"n_read_keys": 0}}', "n_write_keys=1 and n_read_keys=0"),
    (b'{"workload": {"n_write_keys": 2}}', "n_write_keys=2 and n_read_keys=1"),
    (b'{"workload": {"json_depth": 101}}', "json_depth must be within [1, 100], not 101"),
    (b'{"workload": {"arrival_rate_tps": 5e-324}}', "arrival_rate_tps 5e-324 is too small"),
    (b'{"workload": {"total_txs": 1' + b"0" * 309 + b'}}', "total_txs is too large"),
    (b'{"workload": {"total_txs": %d}}' % (sys.maxsize + 1), "total_txs must be at most"),
    (b'{"pipeline": {"block_timeout_ms": 1' + b"0" * 400 + b'}}', "block_timeout_ms is too large"),
], ids=["not-json", "list-top-level", "unknown-section", "unknown-field", "string-int",
        "bool-int", "deleted-bool-field", "string-orgs", "out-of-range", "no-orgs", "nan-timeout",
        "infinite-rate", "lone-surrogate-org", "deleted-field", "no-reads",
        "reads-narrower-than-writes", "too-deep", "unschedulable-rate", "total-txs-beyond-float-range",
        "total-txs-beyond-the-largest-len", "timeout-beyond-float-range"])
def test_run_bad_config_file_fails_naming_it(capsys, tmp_path, content, field):
    cfg = tmp_path / "sim.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(capsys, "run", "--txs", "4", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cfg}: ")
    assert field in err


# ----------------------------------------------------------------------
# replay


def test_replay_digest_matches_live_run(capsys, tmp_path):
    blocklog = tmp_path / "blocks.log"
    _, run_out, _ = run_cli(capsys, "run", "--txs", "12", "--save-blocklog", str(blocklog))
    code, replay_out, _ = run_cli(capsys, "replay", str(blocklog))
    assert code == 0
    assert digest_of(replay_out) == digest_of(run_out)


def test_replay_json_lines_format(capsys, tmp_path):
    blocklog = tmp_path / "blocks.log"
    run_cli(capsys, "run", "--txs", "4", "--save-blocklog", str(blocklog))
    code, out, _ = run_cli(capsys, "replay", str(blocklog), "--format", "json-lines")
    assert code == 0
    assert "digest" in json.loads(out.strip())


def test_replay_truncated_log_fails_naming_the_file(capsys, tmp_path):
    blocklog = tmp_path / "blocks.log"
    run_cli(capsys, "run", "--txs", "4", "--save-blocklog", str(blocklog))
    blocklog.write_bytes(blocklog.read_bytes()[:-1])
    code, _, err = run_cli(capsys, "replay", str(blocklog))
    assert code == 1
    assert err.startswith(f"error: {blocklog}: record ")
    assert "truncated body" in err


def test_replay_empty_file_fails_naming_it(capsys, tmp_path):
    blocklog = tmp_path / "empty.log"
    blocklog.write_bytes(b"")
    code, out, err = run_cli(capsys, "replay", str(blocklog))
    assert (code, out) == (1, "")
    assert err == f"error: {blocklog}: no record; a saved block log holds its genesis or a block\n"


def test_replay_missing_file_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "replay", str(tmp_path / "absent.log"))
    assert code == 1
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# bench


def test_bench_named_experiment_writes_tables(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--experiment", "conflict_pct",
                           "--scale", "0.02", "--out", str(tmp_path))
    assert code == 0
    paths = out.splitlines()
    assert paths
    for path in paths:
        assert path.startswith(str(tmp_path))
    names = {p.rsplit("/", 1)[-1] for p in paths}
    assert "conflict_pct_crdt_success_count.csv" in names


def test_bench_both_modes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--experiment", "conflict_pct",
                           "--scale", "0.01", "--out", str(tmp_path), "--mode", "both")
    assert code == 0
    names = [p.rsplit("/", 1)[-1] for p in out.splitlines()]
    assert "conflict_pct_crdt_success_count.csv" in names
    assert "conflict_pct_fabric_success_count.csv" in names
    # One name in two modes is no repeat: each mode writes its own tables.
    assert len(names) == len(set(names)) == 2 * len(METRIC_COLUMNS)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)


def test_bench_runs_several_experiments_in_order(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--experiment", "conflict_pct", "block_size",
                           "--scale", "0.01", "--out", str(tmp_path), "--mode", "both")
    assert code == 0
    names = [p.rsplit("/", 1)[-1] for p in out.splitlines()]
    prefixes = [name.split("_success_count")[0] for name in names if "_success_count" in name]
    assert prefixes == ["conflict_pct_crdt", "block_size_crdt",
                        "conflict_pct_fabric", "block_size_fabric"]


def test_bench_experiment_file(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "name": "tiny",
        "workload": {"total_txs": 10},
        "sweep_param": "conflict_pct",
        "sweep_values": [0.0, 100.0],
    }))
    code, out, _ = run_cli(capsys, "bench", "--experiment", str(spec_file),
                           "--out", str(tmp_path / "tables"))
    assert code == 0
    names = {p.rsplit("/", 1)[-1] for p in out.splitlines()}
    assert "tiny_crdt_success_count.csv" in names


@pytest.mark.parametrize("flag, counts", [
    ((), {"fabric": (1, 19)}),
    (("--mode", "crdt"), {"crdt": (20, 0)}),
    (("--mode", "both"), {"crdt": (20, 0), "fabric": (1, 19)}),
], ids=["file-mode", "flag-crdt", "flag-both"])
def test_bench_mode_flag_beats_the_spec_files_mode(capsys, tmp_path, flag, counts):
    spec_file = tmp_path / "m.json"
    spec_file.write_text(json.dumps({
        "name": "m",
        "pipeline": {"mode": "fabric"},
        "workload": {"total_txs": 20},
        "sweep_param": "conflict_pct",
        "sweep_values": [100.0],
    }))
    out_dir = tmp_path / "tables"
    code, out, _ = run_cli(capsys, "bench", "--experiment", str(spec_file), *flag,
                           "--out", str(out_dir))
    assert code == 0
    assert {p.rsplit("/", 1)[-1].split("_")[1] for p in out.splitlines()} == set(counts)
    for mode, expected in counts.items():
        tables = [(out_dir / f"m_{mode}_{metric}.csv").read_text().splitlines()
                  for metric in ("success_count", "failure_count")]
        assert tuple(int(t[1].split(",")[1]) for t in tables) == expected


def bench_tables(capsys, out_dir, *argv) -> dict:
    """Run bench with argv into out_dir and return each table's text by file name."""
    code, out, err = run_cli(capsys, "bench", *argv, "--out", str(out_dir))
    assert (code, err) == (0, "")
    return {Path(p).name: Path(p).read_text() for p in out.splitlines()}


def test_bench_seed_order_is_flag_then_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "seeded.json"
    spec_file.write_text(json.dumps({
        "name": "seeded",
        "workload": {"total_txs": 60, "json_keys": 3, "seed": 5},
        "sweep_param": "conflict_pct",
        "sweep_values": [50],
    }))
    spec = ("--experiment", str(spec_file))
    plain = bench_tables(capsys, tmp_path / "plain", *spec)
    flagged = bench_tables(capsys, tmp_path / "flagged", *spec, "--seed", "9")
    assert flagged != plain  # the seed shows in the tables
    assert bench_tables(capsys, tmp_path / "file-seed", *spec, "--seed", "5") == plain


def test_bench_seed_flag_changes_a_named_experiment(capsys, tmp_path):
    named = ("--experiment", "json_complexity", "--scale", "0.02")
    default = bench_tables(capsys, tmp_path / "default", *named)
    flagged = bench_tables(capsys, tmp_path / "flagged", *named, "--seed", "9")
    assert flagged != default


@pytest.mark.parametrize("content", [
    b'{"name": "tiny", "sweep_param": "conflict_pct",\n',
    json.dumps({"name": "tiny", "pipeline": {"max_tx_count": "5"},
                "sweep_param": "conflict_pct", "sweep_values": [0]}).encode(),
    json.dumps({"name": "tiny", "sweep_param": "conflict_pct",
                "sweep_values": ["a"]}).encode(),
], ids=["truncated", "string-override", "string-sweep-value"])
def test_bench_malformed_experiment_file_fails_naming_it(capsys, tmp_path, content):
    spec_file = tmp_path / "spec.json"
    spec_file.write_bytes(content)
    out_dir = tmp_path / "tables"
    code, out, err = run_cli(capsys, "bench", "--experiment", str(spec_file),
                             "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {spec_file}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"workload": {"conflict_pct": 500}}, "conflict_pct must be within [0, 100], not 500"),
    ({"sweep_param": "max_tx_count", "sweep_values": [5, 0]},
     "point max_tx_count=0: max_tx_count must be positive, not 0"),
    ({"sweep_param": "arrival_rate_tps", "sweep_values": [-1]},
     "point arrival_rate_tps=-1: arrival_rate_tps must be positive, not -1"),
    ({"sweep_param": "block_timeout_ms", "sweep_values": [1000, float("inf")]},
     "point block_timeout_ms=inf: block_timeout_ms must be finite, not inf"),
    ({"sweep_param": "block_timeout_ms", "sweep_values": [1000, 10**400]},
     "point block_timeout_ms=1" + "0" * 400 + ": block_timeout_ms is too large: it does not fit a float"),
    ({"name": "sub/x"}, "field 'name' must not hold a '/' or a NUL, not 'sub/x'"),
    ({"name": "../escaped"}, "field 'name' must not hold a '/' or a NUL, not '../escaped'"),
    ({"name": "x\0y"}, "field 'name' must not hold a '/' or a NUL, not 'x\\x00y'"),
], ids=["conflict-override", "zero-block-size", "negative-rate", "infinite-timeout",
        "timeout-beyond-float-range", "name-in-a-subdirectory", "name-outside-out", "name-with-nul"])
def test_bench_out_of_range_experiment_fails_before_any_runs(capsys, tmp_path, overrides,
                                                             message):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"name": "bad", "sweep_param": "conflict_pct",
                                     "sweep_values": [0], **overrides}))
    out_dir = tmp_path / "tables"
    code, out, err = run_cli(capsys, "bench", "--experiment", "conflict_pct", str(spec_file),
                             "--scale", "0.01", "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {spec_file}: ")
    assert message in err
    assert not out_dir.exists()
    assert {path.name for path in tmp_path.iterdir()} == {"bad.json"}


def test_bench_out_naming_a_file_fails_before_any_runs(capsys, monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr("crdtsim.cli.run_experiment", ran.append)
    out_file = tmp_path / "tables"
    out_file.write_text("")
    code, out, err = run_cli(capsys, "bench", "--experiment", "conflict_pct",
                             "--scale", "0.01", "--out", str(out_file))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(out_file) in err
    assert ran == []


@pytest.mark.parametrize("as_file", [False, True], ids=["two-named", "file-named-alike"])
def test_bench_repeated_experiment_name_fails_before_any_runs(capsys, monkeypatch, tmp_path,
                                                              as_file):
    ran = []
    monkeypatch.setattr("crdtsim.cli.run_experiment", ran.append)
    second = "conflict_pct"
    if as_file:
        second = tmp_path / "alike.json"
        second.write_text(json.dumps({"name": "conflict_pct", "sweep_param": "max_tx_count",
                                      "sweep_values": [5]}))
    out_dir = tmp_path / "tables"
    code, out, err = run_cli(capsys, "bench", "--experiment", "conflict_pct", str(second),
                             "--scale", "0.01", "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == ("error: experiment name 'conflict_pct' is given twice in mode crdt: "
                   "both would write conflict_pct_crdt_*.csv\n")
    assert ran == []
    assert not out_dir.exists()


def test_bench_one_name_in_two_modes_writes_both(capsys, tmp_path):
    spec_file = tmp_path / "alike.json"
    spec_file.write_text(json.dumps({"name": "conflict_pct", "pipeline": {"mode": "fabric"},
                                     "sweep_param": "max_tx_count", "sweep_values": [5]}))
    tables = bench_tables(capsys, tmp_path / "tables", "--experiment", "conflict_pct",
                          str(spec_file), "--scale", "0.01")
    assert sorted(tables) == sorted(f"conflict_pct_{mode}_{metric}.csv"
                                    for mode in ("crdt", "fabric") for metric in METRIC_COLUMNS)
    assert tables["conflict_pct_fabric_success_count.csv"].startswith("max_tx_count,")


def test_bench_scale_floors_at_one_tx_per_point(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--experiment", "block_size", "rw_keys",
                           "json_complexity", "arrival_rate", "conflict_pct",
                           "--scale", "0.0001", "--out", str(tmp_path))
    assert code == 0

    def column(path):
        return [int(line.split(",")[1]) for line in Path(path).read_text().splitlines()[1:]]

    tables = [path for path in out.splitlines() if path.endswith("_success_count.csv")]
    assert len(tables) == 5
    for path in tables:
        success = column(path)
        failure = column(path.replace("_success_count", "_failure_count"))
        assert [s + f for s, f in zip(success, failure)] == [1] * len(success)


@pytest.mark.parametrize("scale", ["0", "-3", "nan", "inf"])
def test_bench_rejects_a_non_positive_or_non_finite_scale(capsys, tmp_path, scale):
    out_dir = tmp_path / "tables"
    with pytest.raises(SystemExit) as info:
        main(["bench", "--experiment", "conflict_pct", "--scale", scale, "--out", str(out_dir)])
    assert info.value.code == 2
    assert f"argument --scale: must be a positive finite number, not '{scale}'" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def test_bench_rejects_a_scale_that_overflows_the_transaction_count(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    code, out, err = run_cli(capsys, "bench", "--experiment", "conflict_pct",
                             "--scale", "1e308", "--out", str(out_dir))
    assert code == 1 and out == ""
    assert "--scale 1e+308" in err and "'conflict_pct'" in err
    assert not out_dir.exists()


def test_bench_unknown_experiment_fails(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bench", "--experiment", "warp",
                           "--out", str(tmp_path))
    assert code == 1
    assert "unknown experiment" in err
    # A bad name after a good one fails before any experiment runs.
    out_dir = tmp_path / "tables"
    code, _, err = run_cli(capsys, "bench", "--experiment", "conflict_pct", "warp",
                           "--scale", "0.01", "--out", str(out_dir))
    assert code == 1
    assert "'warp'" in err
    assert not out_dir.exists()


# ----------------------------------------------------------------------
# merge-demo


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_merge_demo_merges_in_order(capsys, tmp_path):
    a = write_doc(tmp_path, "a.json", {"tempReadings": [{"temperature": "15"}]})
    b = write_doc(tmp_path, "b.json", {"tempReadings": [{"temperature": "20"}]})
    code, out, _ = run_cli(capsys, "merge-demo", a, b)
    assert code == 0
    assert json.loads(out) == {
        "tempReadings": [{"temperature": "15"}, {"temperature": "20"}]}
    assert out.strip() == canonical_json_bytes(json.loads(out)).decode()


def test_merge_demo_rejects_numeric_leaves(capsys, tmp_path):
    good = write_doc(tmp_path, "good.json", {"temperature": "15"})
    bad = tmp_path / "bad.json"
    for text, message in [
        ('{"temperature": 25}', "unsupported leaf 25"),
        ('{"temperature": "15"', "not a JSON document"),
        ('[{"temperature": "15"}]', "top-level document must be a map or a string"),
        ('{"temperature": ["15"]}', "is a leaf"),  # structural conflict with good.json
        ('{"a":' * 990 + '"x"' + '}' * 990, "maximum recursion depth exceeded"),
    ]:
        bad.write_text(text)
        code, out, err = run_cli(capsys, "merge-demo", good, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: ")
        assert message in err


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
