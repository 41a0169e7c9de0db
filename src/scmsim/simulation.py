"""Decentralized linear-regression learning under attack.

Each benign agent repeatedly takes a Huber-loss stochastic gradient step on
fresh local data (adapt) and then aggregates the intermediate weights of
its neighborhood with a robust rule (combine).  Malicious agents skip
adaptation entirely; each iteration they report per-receiver crafted
vectors instead.  All randomness derives from per-agent streams spawned
from the experiment seed, so traces are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, CraftingContext, craft_attack
from .estimators import AggregatorSpec, aggregate_matrix
from .topology import NetworkTopology

# Traces are capped here; any weight beyond it marks the run as diverged.
DIVERGENCE_SENTINEL = 1e30


def draw_true_weights(dim: int, seed) -> np.ndarray:
    """Ground-truth model drawn once per experiment, standard normal."""
    return np.random.default_rng(seed).standard_normal(dim)


@dataclass(frozen=True, eq=False)
class LinearModelConfig:
    """Data model: d = u' w_true + v with u ~ N(0, I) and v ~ N(0, noise_var)."""

    true_weights: np.ndarray
    noise_var: float = 0.01
    samples_per_iteration: int = 1

    def __post_init__(self) -> None:
        w = np.asarray(self.true_weights, dtype=float).ravel()
        if w.size < 1:
            raise ValueError("model dimension must be at least 1")
        if self.noise_var <= 0.0:
            raise ValueError("noise variance must be positive")
        if self.samples_per_iteration < 1:
            raise ValueError("need at least one sample per iteration")
        object.__setattr__(self, "true_weights", w)

    @property
    def dim(self) -> int:
        return self.true_weights.size


@dataclass(frozen=True)
class LearningConfig:
    step_size: float = 0.05
    iterations: int = 300
    huber_delta: float = 1.0

    def __post_init__(self) -> None:
        if self.step_size <= 0.0:
            raise ValueError("step size must be positive")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.huber_delta <= 0.0:
            raise ValueError("huber_delta must be positive")


def huber_loss(residual, delta: float):
    """Quadratic within |r| <= delta, linear beyond."""
    if delta <= 0.0:
        raise ValueError("huber_delta must be positive")
    r = np.asarray(residual, dtype=float)
    out = np.where(
        np.abs(r) <= delta, 0.5 * r * r, delta * np.abs(r) - 0.5 * delta * delta
    )
    return float(out) if np.isscalar(residual) else out


def huber_grad_factor(residual, delta: float):
    """Derivative of the Huber loss: the residual clipped to [-delta, delta]."""
    if delta <= 0.0:
        raise ValueError("huber_delta must be positive")
    out = np.clip(np.asarray(residual, dtype=float), -delta, delta)
    return float(out) if np.isscalar(residual) else out


def generate_batch(rng: np.random.Generator, model: LinearModelConfig, size: int):
    """A batch of samples: returns (regressors (size, dim), targets (size,))."""
    regressors = rng.standard_normal((size, model.dim))
    noise = rng.normal(0.0, math.sqrt(model.noise_var), size)
    return regressors, regressors @ model.true_weights + noise


def _residuals(weights: np.ndarray, regressors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # One matrix-vector product per agent: (..., batch, dim) @ (..., dim, 1).
    return targets - (regressors @ weights[..., None])[..., 0]


def adapt(
    weights: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    learning: LearningConfig,
) -> np.ndarray:
    """Stochastic gradient step on the batch-averaged Huber loss.

    Leading axes index agents: ``weights`` is (..., dim), ``regressors``
    (..., batch, dim) and ``targets`` (..., batch).  Each agent's step is the
    same arithmetic as a single-agent call, so stacking agents changes no bit.
    """
    if regressors.shape[-2] == 0:
        raise ValueError("adapt requires a non-empty batch")
    g = huber_grad_factor(_residuals(weights, regressors, targets), learning.huber_delta)
    return weights + learning.step_size * (g[..., None] * regressors).mean(axis=-2)


@dataclass(eq=False)
class ExperimentTrace:
    """Per-iteration metrics of one (aggregator, attack) run.

    ``final_weights`` holds the benign agents' weight vectors after the
    last iteration, one row per benign agent in agent-id order.
    """

    iteration: np.ndarray
    training_loss: np.ndarray
    msd: np.ndarray
    m_converged: np.ndarray
    diverged: bool
    initial_msd: float
    final_weights: np.ndarray | None = None

    @property
    def final_msd(self) -> float:
        return float(self.msd[-1])

    def tail_mean_loss(self, window: int = 30) -> float:
        return float(self.training_loss[-window:].mean())


def run_experiment(
    topology: NetworkTopology,
    model: LinearModelConfig,
    learning: LearningConfig,
    aggregator: AggregatorSpec,
    attack: AttackSpec | None,
    seed,
) -> ExperimentTrace:
    """Simulate the full network for ``learning.iterations`` rounds.

    The training loss is the benign-agent mean of the Huber loss on each
    agent's fresh batch, evaluated at its pre-adaptation weights; the MSD is
    the benign-agent mean of ||w_k - w_true||^2 after combining.  Once any
    weight magnitude exceeds ``DIVERGENCE_SENTINEL`` the run is marked
    diverged and the remaining trace rows are frozen at the sentinel.
    """
    if attack is None and topology.num_malicious > 0:
        raise ValueError("an attack scheme is required when malicious agents are present")
    n_agents = topology.agent_count
    dim = model.dim
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_agents)]
    benign = topology.benign_agents
    # One entry per receiver: (agent, benign neighbours, malicious count).
    receivers = []
    for k in benign:
        nb = topology.neighborhood(int(k))
        is_mal = topology.malicious[nb]
        receivers.append((int(k), nb[~is_mal], int(is_mal.sum())))

    weights = np.zeros((n_agents, dim))
    phis = np.zeros_like(weights)
    iters = learning.iterations
    loss_trace = np.full(iters, DIVERGENCE_SENTINEL)
    msd_trace = np.full(iters, DIVERGENCE_SENTINEL)
    m_converged = np.ones(iters, dtype=bool)
    initial_msd = float(np.mean(np.sum((weights[benign] - model.true_weights) ** 2, axis=1)))
    diverged = False

    batch = model.samples_per_iteration
    regressors = np.empty((benign.size, batch, dim))
    targets = np.empty((benign.size, batch))
    with np.errstate(over="ignore"):
        for i in range(iters):
            for j, k in enumerate(benign):
                regressors[j], targets[j] = generate_batch(streams[k], model, batch)
            own = weights[benign]
            residuals = _residuals(own, regressors, targets)
            losses = huber_loss(residuals, learning.huber_delta).mean(axis=-1)
            phis[benign] = adapt(own, regressors, targets, learning)
            all_ok = True
            for k, visible_ids, n_mal in receivers:
                visible = phis[visible_ids]
                if n_mal > 0:
                    crafted = craft_attack(CraftingContext(visible, n_mal), attack)
                    stacked = np.concatenate(
                        [visible, np.broadcast_to(crafted, (n_mal, dim))], axis=0
                    )
                else:
                    stacked = visible
                result = aggregate_matrix(aggregator, stacked)
                weights[k] = result.values
                all_ok &= result.converged
            m_converged[i] = all_ok
            msd = float(np.mean(np.sum((weights[benign] - model.true_weights) ** 2, axis=1)))
            loss_trace[i] = min(float(losses.mean()), DIVERGENCE_SENTINEL)
            msd_trace[i] = min(msd, DIVERGENCE_SENTINEL)
            if np.abs(weights[benign]).max() > DIVERGENCE_SENTINEL:
                diverged = True
                break

    return ExperimentTrace(
        iteration=np.arange(1, iters + 1),
        training_loss=loss_trace,
        msd=msd_trace,
        m_converged=m_converged,
        diverged=diverged,
        initial_msd=initial_msd,
        final_weights=weights[benign].copy(),
    )
