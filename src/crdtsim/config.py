"""JSON config files: `{"pipeline": {...}, "workload": {...}}` field overrides.

The same two sections configure `crdtsim run --config` and the base configs
of an experiment spec file. Every field is optional and keeps the value it
had; set_field is the one type rule for a field value read from a file, so
typos and ill-typed values fail loudly, naming the file.
"""

from __future__ import annotations

import json
from dataclasses import fields

SECTIONS = ("pipeline", "workload")


def set_field(cfg, name: str, value) -> None:
    """Set one config field. The value must fit the type of the field's
    default: its type or an int for a float, but never a bool."""
    if name not in {f.name for f in fields(cfg)}:
        raise ValueError(f"{name!r} is not a {type(cfg).__name__} field")
    kind = type(getattr(cfg, name))
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(value, bool):
        raise ValueError(f"field {name!r} must be a {kind.__name__}, not {value!r}")
    setattr(cfg, name, value)


def read_json_object(path) -> dict:
    """The JSON object in path; malformed or too deeply nested JSON or
    another top-level type raises ValueError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object, not {type(doc).__name__}")
    return doc


def apply_overrides(doc: dict, pipeline, workload) -> None:
    """Set each field of doc's "pipeline" and "workload" objects, where
    present, on the matching config through set_field."""
    for section, cfg in zip(SECTIONS, (pipeline, workload)):
        overrides = doc.get(section, {})
        if not isinstance(overrides, dict):
            raise ValueError(f"field {section!r} is not an object")
        for name, value in overrides.items():
            set_field(cfg, name, value)


def load_config(path, pipeline, workload) -> None:
    """Apply a config file's overrides onto pipeline and workload, then
    validate both. Every error raises ValueError starting with the path."""
    doc = read_json_object(path)
    try:
        for section in doc:
            if section not in SECTIONS:
                raise ValueError(f"unknown section {section!r}; sections: {', '.join(SECTIONS)}")
        apply_overrides(doc, pipeline, workload)
        pipeline.validate()
        workload.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
