"""Deterministic simulator for sensitivity-curve maximization attacks on
robust aggregation in decentralized learning."""

__version__ = "0.1.0"

from .estimators import (  # noqa: F401
    AggregatorKind,
    AggregatorSpec,
    estimate,
    mad,
    tuned_aggregators,
)
from .sensitivity import (  # noqa: F401
    max_sc_numeric,
    sc_sweep,
    sensitivity_values,
)
from .attacks import (  # noqa: F401
    AttackSpec,
    CraftingContext,
    craft_attack,
    psi_argmax,
)
from .topology import (  # noqa: F401
    NetworkTopology,
    TopologyError,
    generate_topology,
)
from .simulation import (  # noqa: F401
    LearningConfig,
    LinearModelConfig,
    draw_true_weights,
    huber_grad_factor,
    huber_loss,
    run_experiment,
)
