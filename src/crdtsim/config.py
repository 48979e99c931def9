"""INI config file with [pipeline] and [workload] sections.

Every field is optional and defaults to the dataclass default; unknown keys
are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import fields

from .txpipeline import PipelineConfig
from .workload import WorkloadConfig


class ConfigError(Exception):
    pass


def _coerce(section, name: str, kind):
    if kind is bool:
        return section.getboolean(name)
    if kind is int:
        return section.getint(name)
    if kind is float:
        return section.getfloat(name)
    if kind is tuple:
        return tuple(part.strip() for part in section.get(name).split(",") if part.strip())
    return section.get(name)


def _load_section(parser: configparser.ConfigParser, name: str, cfg, provided: set):
    if not parser.has_section(name):
        return cfg
    section = parser[name]
    known = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        try:
            setattr(cfg, key, _coerce(section, key, known[key]))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{name}]: {exc}") from exc
        provided.add(f"{name}.{key}")
    return cfg


def load_config(path) -> tuple:
    """Read (PipelineConfig, WorkloadConfig, provided) from an INI file.

    provided is the set of keys the file set explicitly ("section.key"), so
    callers can apply defaults only where the file was silent.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in ("pipeline", "workload"):
            raise ConfigError(f"unknown section [{section}]")
    provided: set = set()
    pipeline = _load_section(parser, "pipeline", PipelineConfig(), provided)
    workload = _load_section(parser, "workload", WorkloadConfig(), provided)
    pipeline.validate()
    workload.validate()
    return pipeline, workload, provided
