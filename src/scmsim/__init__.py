"""Deterministic simulator for sensitivity-curve maximization attacks on
robust aggregation in decentralized learning."""

__version__ = "0.1.0"

from .estimators import AggregatorSpec  # noqa: F401
from .sensitivity import max_sc_numeric, sensitivity_values  # noqa: F401
from .attacks import AttackSpec, craft_attack  # noqa: F401
from .topology import generate_topology  # noqa: F401
from .simulation import (  # noqa: F401
    LearningConfig,
    LinearModelConfig,
    draw_true_weights,
    run_experiment,
)
