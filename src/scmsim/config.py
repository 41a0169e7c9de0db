"""Experiment configuration: flat key-value text with sections.

An empty config resolves to the standard experiment: 32 agents on a 0.7
edge-probability random graph, 10-dimensional linear model with noise
variance 0.01, 300 iterations, the five tuned aggregators, and no attack.
Seeds given as ``auto`` are materialized deterministically from the master
seed, so a resolved config reproduces every output byte.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .attacks import DEFAULT_LV_MAGNITUDE, SCM_TARGET, AttackSpec, min_tuning_constant
from .estimators import (
    TALWAR_C_95,
    TRIM_ALPHA_95,
    TUKEY_C_95,
    AggregatorKind,
    AggregatorSpec,
    trim_count,
    tuned_aggregators,
)
from .simulation import LearningConfig, LinearModelConfig, draw_true_weights


class ConfigError(ValueError):
    """Raised on malformed config text or invalid parameter combinations."""


AGGREGATOR_NAMES = frozenset(k.value for k in AggregatorKind)
# Trace CSVs carry the aggregator columns in exactly this order.
DEFAULT_AGGREGATOR_ORDER = tuple(spec.label for spec in tuned_aggregators())
ATTACK_NAMES = frozenset(("none", "large_value", *SCM_TARGET))


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("expected at least one integer")
    return tuple(int(p) for p in parts)


def _name_list(text: str) -> tuple[str, ...]:
    parts = tuple(text.replace(",", " ").split())
    if not parts:
        raise ValueError("expected at least one name")
    return parts


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _seed_int(text) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"a seed must be non-negative, got {value}")
    return value


def _seed(text: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    return _seed_int(text)


def _at_least(low):
    return (lambda v: v >= low, f"must be at least {low}")


_POSITIVE = (lambda v: v > 0, "must be positive")


def _key(section: str, key: str, parse: Callable, default, rule=None):
    """A config field: read from ``[section] key`` through ``parse``.

    ``rule`` is the key's valid range as ``(predicate, requirement)``; a
    value failing the predicate is rejected as "section.key requirement".
    """
    return field(default=default, metadata={"key": (section, key, parse), "rule": rule})


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment a config describes; each field declares its key.

    Field order is the order of the keys in ``resolved_text``.
    """

    master_seed: int = _key("experiment", "master_seed", _seed_int, 0)
    data_seed: int | None = _key("experiment", "data_seed", _seed, None)
    agents: int = _key("topology", "agents", int, 32, _at_least(2))
    edge_probability: float = _key(
        "topology", "edge_probability", _finite_float, 0.7,
        (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    )
    malicious_counts: tuple[int, ...] = _key("topology", "malicious_counts", _int_list, (0,))
    topology_seed: int | None = _key("topology", "seed", _seed, None)
    dim: int = _key("model", "dim", int, 10, _at_least(1))
    noise_var: float = _key(
        "model", "noise_var", _finite_float, LinearModelConfig.noise_var, _POSITIVE
    )
    weight_seed: int | None = _key("model", "weight_seed", _seed, None)
    step_size: float = _key(
        "learning", "step_size", _finite_float, LearningConfig.step_size, _POSITIVE
    )
    iterations: int = _key("learning", "iterations", int, LearningConfig.iterations, _at_least(1))
    huber_delta: float = _key(
        "learning", "huber_delta", _finite_float, LearningConfig.huber_delta, _POSITIVE
    )
    batch_size: int = _key(
        "learning", "batch_size", int, LinearModelConfig.samples_per_iteration,
        _at_least(1),
    )
    aggregator_names: tuple[str, ...] = _key(
        "aggregators", "schemes", _name_list, DEFAULT_AGGREGATOR_ORDER
    )
    trim_alpha: float = _key(
        "aggregators", "trim_alpha", _finite_float, TRIM_ALPHA_95,
        (lambda v: 0.0 <= v < 0.5, "must lie in [0, 0.5)"),
    )
    talwar_c: float = _key("aggregators", "talwar_c", _finite_float, TALWAR_C_95, _POSITIVE)
    tukey_c: float = _key("aggregators", "tukey_c", _finite_float, TUKEY_C_95, _POSITIVE)
    attack_names: tuple[str, ...] = _key("attack", "schemes", _name_list, ("none",))
    lv_magnitude: float = _key("attack", "lv_magnitude", _finite_float, DEFAULT_LV_MAGNITUDE)
    sweep_base_size: int = _key("sweep", "base_size", int, 100, _at_least(1))
    sweep_base_seed: int | None = _key("sweep", "base_seed", _seed, None)
    sweep_symmetric: bool = _key("sweep", "symmetric", _bool, False)
    sweep_grid_min: float = _key("sweep", "grid_min", _finite_float, -10.0)
    sweep_grid_max: float = _key("sweep", "grid_max", _finite_float, 10.0)
    sweep_grid_points: int = _key("sweep", "grid_points", int, 401, _at_least(1))
    sweep_outlier_count: int = _key("sweep", "outlier_count", int, 1, _at_least(1))
    efficiency_trials: int = _key("efficiency", "trials", int, 100000, _at_least(1000))
    efficiency_sample_size: int = _key("efficiency", "sample_size", int, 100, _at_least(2))
    output_directory: str = _key("output", "directory", str, "out")

    def aggregator_spec(self, kind: AggregatorKind) -> AggregatorSpec:
        """The rule ``kind`` at this config's tuning: what the defender runs
        and what an SCM attack on that rule is crafted against."""
        if kind is AggregatorKind.TRIMMED_MEAN:
            return AggregatorSpec.trimmed_mean(self.trim_alpha)
        if kind is AggregatorKind.TALWAR:
            return AggregatorSpec.talwar(self.talwar_c)
        if kind is AggregatorKind.TUKEY:
            return AggregatorSpec.tukey(self.tukey_c)
        return AggregatorSpec(kind)

    def aggregator_specs(self) -> list[AggregatorSpec]:
        return [self.aggregator_spec(AggregatorKind(name)) for name in self.aggregator_names]

    def attack_spec(self, name: str) -> AttackSpec | None:
        if name == "none":
            return None
        if name == "large_value":
            return AttackSpec.large_value(self.lv_magnitude)
        return AttackSpec(self.aggregator_spec(SCM_TARGET[name]))

    def model(self) -> LinearModelConfig:
        return LinearModelConfig(
            true_weights=draw_true_weights(self.dim, self.weight_seed),
            noise_var=self.noise_var,
            samples_per_iteration=self.batch_size,
        )

    def learning(self) -> LearningConfig:
        return LearningConfig(
            step_size=self.step_size,
            iterations=self.iterations,
            huber_delta=self.huber_delta,
        )

    def sweep_base(self) -> np.ndarray:
        """Gaussian base set for the sweep; optionally mirrored around zero.

        The mirrored variant pins the robust aggregators' fixed point at the
        center, which reproduces the idealized curve shapes (exact redescent
        to zero) independent of sampling asymmetry.
        """
        rng = np.random.default_rng(self.sweep_base_seed)
        if not self.sweep_symmetric:
            return rng.standard_normal(self.sweep_base_size)
        half = rng.standard_normal(self.sweep_base_size // 2)
        parts = [half, -half]
        if self.sweep_base_size % 2:
            parts.append(np.zeros(1))
        return np.concatenate(parts)


def _schema() -> dict[str, dict[str, tuple[str, Callable]]]:
    schema = {}
    for f in fields(ExperimentConfig):
        section, key, parse = f.metadata["key"]
        schema.setdefault(section, {})[key] = (f.name, parse)
    return schema


# section -> key -> (attribute, parser), in field order.
_SCHEMA = _schema()


# Seeds left as ``auto`` are derived from the master seed, stream i for the
# i-th field named here; the manifest records all of them.
_DERIVED_SEEDS = ("topology_seed", "weight_seed", "sweep_base_seed", "data_seed")


def _derive_seed(master_seed: int, stream: int) -> int:
    child = np.random.SeedSequence(master_seed).spawn(stream + 1)[stream]
    return int(np.random.default_rng(child).integers(0, 2**63))


def _resolve(cfg: ExperimentConfig) -> ExperimentConfig:
    updates = {}
    for stream, attr in enumerate(_DERIVED_SEEDS):
        if getattr(cfg, attr) is None:
            updates[attr] = _derive_seed(cfg.master_seed, stream)
    return replace(cfg, **updates) if updates else cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Each key's own range, in field order, then the rules joining keys."""
    for f in fields(ExperimentConfig):
        rule = f.metadata["rule"]
        if rule is not None and not rule[0](getattr(cfg, f.name)):
            section, key, _ = f.metadata["key"]
            raise ConfigError(f"{section}.{key} {rule[1]}")
    for i, m in enumerate(cfg.malicious_counts):
        if not 0 <= m < cfg.agents / 2:
            raise ConfigError(
                f"topology.malicious_counts entry {m} violates 0 <= m < agents/2"
                f" (agents={cfg.agents})"
            )
        if m in cfg.malicious_counts[:i]:
            raise ConfigError(f"topology.malicious_counts: duplicate count {m}")
    for section, names, known in (
        ("aggregators", cfg.aggregator_names, AGGREGATOR_NAMES),
        ("attack", cfg.attack_names, ATTACK_NAMES),
    ):
        seen = set()
        for name in names:
            if name not in known:
                raise ConfigError(f"{section}.schemes: unknown scheme {name!r}")
            if name in seen:
                raise ConfigError(f"{section}.schemes: duplicate scheme {name!r}")
            seen.add(name)
    if "none" in cfg.attack_names and any(m > 0 for m in cfg.malicious_counts):
        raise ConfigError(
            "attack.schemes includes 'none' but topology.malicious_counts has"
            " nonzero entries; malicious agents need an attack scheme"
        )
    if not cfg.sweep_grid_min < cfg.sweep_grid_max:
        raise ConfigError("sweep.grid_min must be below sweep.grid_max")
    if not math.isfinite(cfg.sweep_grid_max - cfg.sweep_grid_min):
        raise ConfigError("sweep.grid_max - sweep.grid_min must be a finite width")
    # The trimmed-mean marker sits just below the base values the trim removes.
    n, p = cfg.sweep_base_size, cfg.sweep_outlier_count
    if "trimmed_mean" in cfg.aggregator_names and n - trim_count(n + p, cfg.trim_alpha) < 1:
        raise ConfigError(
            f"sweep.base_size {n} leaves no trimmed-mean marker: with sweep.outlier_count"
            f" {p}, the aggregators.trim_alpha {cfg.trim_alpha} trim removes every base value"
        )
    # The Talwar and Tukey markers need the base values to hold the median.
    if {"talwar", "tukey"} & set(cfg.aggregator_names) and p >= n:
        raise ConfigError(
            f"sweep.outlier_count {p} must be below sweep.base_size {n}: the outliers"
            " would hold the median, so no talwar or tukey marker exists"
        )
    # The closed-form Talwar/Tukey placement of a marker or attack needs c large enough.
    for kind, c in ((AggregatorKind.TALWAR, cfg.talwar_c), (AggregatorKind.TUKEY, cfg.tukey_c)):
        used = {kind.value, f"{kind.value}_scm"} & {*cfg.aggregator_names, *cfg.attack_names}
        if used and c < min_tuning_constant(kind):
            raise ConfigError(
                f"aggregators.{kind.value}_c {c} must be at least"
                f" {min_tuning_constant(kind)!r} for its marker or attack"
            )


def parse_config(text: str, master_seed: int | None = None) -> ExperimentConfig:
    """Parse, apply defaults, materialize seeds, and validate.

    Unknown sections or keys are rejected; every diagnostic names the
    offending section and key.  ``master_seed`` overrides the config value
    before any auto seed is materialized.
    """
    # No header names the empty section, so a [DEFAULT] section is an
    # unknown section like any other instead of keys for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    values = {}

    def convert(section: str, key: str, raw) -> None:
        attr, parse = _SCHEMA[section][key]
        try:
            values[attr] = parse(raw)
        except ValueError as err:
            raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({err})") from err

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            convert(section, key, raw)
    if master_seed is not None:
        convert("experiment", "master_seed", master_seed)
    cfg = _resolve(ExperimentConfig(**values))
    _validate(cfg)
    return cfg


def resolved_text(cfg: ExperimentConfig) -> str:
    """Emit the fully materialized config; re-parsing reproduces ``cfg``."""
    out = io.StringIO()
    writer = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        writer.add_section(section)
        for key, (attr, _) in keys.items():
            value = getattr(cfg, attr)
            if isinstance(value, tuple):
                rendered = " ".join(str(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            writer.set(section, key, rendered)
    writer.write(out)
    return out.getvalue()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    path, command: str, cfg: ExperimentConfig, outputs: list[Path]
) -> None:
    """Completion marker: everything needed to reproduce the output bytes."""
    payload = {
        "version": __version__,
        "command": command,
        "master_seed": cfg.master_seed,
        "derived_seeds": {attr: getattr(cfg, attr) for attr in _DERIVED_SEEDS},
        "resolved_config": resolved_text(cfg),
        "outputs": {
            str(p.name): file_sha256(p) for p in sorted(outputs, key=lambda p: p.name)
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
