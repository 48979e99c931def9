import json
from dataclasses import fields

import pytest

from crdtsim.config import load_config, set_field
from crdtsim.txpipeline import PipelineConfig
from crdtsim.workload import WorkloadConfig


def write_config(tmp_path, doc):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    return path


def load(path):
    pipeline, workload = PipelineConfig(), WorkloadConfig()
    load_config(path, pipeline, workload)
    return pipeline, workload


def test_round_trip_preserves_every_field(tmp_path):
    pipeline = PipelineConfig(mode="fabric", max_tx_count=50, max_bytes=1024,
                              block_timeout_ms=500.0, snapshot_policy="fresh")
    workload = WorkloadConfig(total_txs=77, arrival_rate_tps=150.0, n_read_keys=2,
                              n_write_keys=2, json_keys=3, json_depth=4,
                              conflict_pct=33.0, seed=5)
    path = write_config(tmp_path, {
        "pipeline": vars(pipeline),
        "workload": vars(workload),
    })
    assert load(path) == (pipeline, workload)


def test_missing_sections_fall_back_to_defaults(tmp_path):
    path = write_config(tmp_path, {"pipeline": {"mode": "fabric"}})
    pipeline, workload = load(path)
    assert pipeline == PipelineConfig(mode="fabric")
    assert workload == WorkloadConfig()


def test_file_applies_onto_the_given_configs(tmp_path):
    path = write_config(tmp_path, {"workload": {"total_txs": 10}})
    pipeline, workload = PipelineConfig(mode="fabric"), WorkloadConfig(seed=9)
    load_config(path, pipeline, workload)
    assert pipeline == PipelineConfig(mode="fabric")
    assert workload == WorkloadConfig(total_txs=10, seed=9)


def rejection(tmp_path, doc):
    """The message load_config raises for doc; it must start with the path."""
    path = write_config(tmp_path, doc)
    with pytest.raises(ValueError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message


def test_unknown_key_is_rejected(tmp_path):
    message = rejection(tmp_path, {"pipeline": {"warp": 9}})
    assert "'warp' is not a PipelineConfig field" in message


def test_unknown_section_is_rejected(tmp_path):
    message = rejection(tmp_path, {"visualization": {"color": "red"}})
    assert "unknown section 'visualization'" in message


def test_too_deeply_nested_file_is_rejected_naming_the_path(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: not a UTF-8 JSON file: maximum recursion depth")


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(FileNotFoundError, match="absent.json"):
        load(tmp_path / "absent.json")


def test_bad_scalar_value_is_rejected(tmp_path):
    message = rejection(tmp_path, {"pipeline": {"max_tx_count": "soon"}})
    assert "field 'max_tx_count' must be a int, not 'soon'" in message


def test_semantic_validation_still_applies(tmp_path):
    assert "unknown mode 'quantum'" in rejection(tmp_path, {"pipeline": {"mode": "quantum"}})


def test_no_field_takes_a_bool():
    for cfg in (PipelineConfig(), WorkloadConfig()):
        for field in fields(cfg):
            with pytest.raises(ValueError, match=f"field '{field.name}' must be a"):
                set_field(cfg, field.name, True)
