from dataclasses import fields

import pytest

from crdtsim.config import ConfigError, load_config
from crdtsim.txpipeline import PipelineConfig
from crdtsim.workload import WorkloadConfig


def test_round_trip_preserves_every_field(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text(
        "[pipeline]\nmode = fabric\nmax_tx_count = 50\nmax_bytes = 1024\n"
        "block_timeout_ms = 500.0\nendorsement_k = 2\norgs = orgA,orgB\n"
        "snapshot_policy = fresh\n"
        "[workload]\ntotal_txs = 77\narrival_rate_tps = 150.0\nn_read_keys = 2\n"
        "n_write_keys = 2\njson_keys = 3\njson_depth = 4\nconflict_pct = 33.0\n"
        "crdt_writes = False\nseed = 5\n")
    pipeline = PipelineConfig(mode="fabric", max_tx_count=50, max_bytes=1024,
                              block_timeout_ms=500.0, endorsement_k=2,
                              orgs=("orgA", "orgB"), snapshot_policy="fresh")
    workload = WorkloadConfig(total_txs=77, arrival_rate_tps=150.0, n_read_keys=2,
                              n_write_keys=2, json_keys=3, json_depth=4,
                              conflict_pct=33.0, crdt_writes=False, seed=5)
    loaded_p, loaded_w, provided = load_config(path)
    assert loaded_p == pipeline
    assert loaded_w == workload
    assert len(provided) == len(fields(PipelineConfig)) + len(fields(WorkloadConfig))


def test_missing_sections_fall_back_to_defaults(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[pipeline]\nmode = fabric\n")
    pipeline, workload, provided = load_config(path)
    assert provided == {"pipeline.mode"}
    assert pipeline.mode == "fabric"
    assert pipeline.max_tx_count == PipelineConfig().max_tx_count
    assert workload == WorkloadConfig()


def test_detail_reports_which_keys_were_given(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[pipeline]\nmode = crdt\n[workload]\nseed = 9\n")
    _, workload, provided = load_config(path)
    assert provided == {"pipeline.mode", "workload.seed"}
    assert workload.seed == 9


def test_unknown_key_is_rejected(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[pipeline]\nwarp = 9\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_section_is_rejected(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[visualization]\ncolor = red\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_bad_scalar_value_is_rejected(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[pipeline]\nmax_tx_count = soon\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_semantic_validation_still_applies(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text("[pipeline]\nmode = quantum\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_tuple_and_bool_coercion(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text(
        "[pipeline]\norgs = orgA, orgB , orgC\n"
        "[workload]\ncrdt_writes = false\n")
    pipeline, workload, _ = load_config(path)
    assert pipeline.orgs == ("orgA", "orgB", "orgC")
    assert workload.crdt_writes is False
