"""Decentralized linear-regression learning under attack.

Each benign agent repeatedly takes a Huber-loss stochastic gradient step on
fresh local data (adapt) and then aggregates the intermediate weights of
its neighborhood with a robust rule (combine).  Malicious agents skip
adaptation and report per-receiver crafted vectors, so the learning state
is one row of weights per benign agent.  A round is one padded matrix, a
column per receiver and coordinate, laid out once per run from the
receivers' closed neighborhoods in the adjacency: one gather fills its
benign rows from the adapted weights, one ``craft_attack`` call fills its
copy rows, and one ``aggregate_matrix`` call combines it, giving each
receiver the bits of calls on its rows alone.  All randomness derives from
per-agent streams spawned from the experiment seed, so traces are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, craft_attack
from .estimators import AggregatorSpec, Layout, _check_positive, _one_count, aggregate_matrix
from .topology import NetworkTopology

# Traces are capped here; any weight beyond it marks the run as diverged.
DIVERGENCE_SENTINEL = 1e30
# Agents' data is drawn this many rounds at a time: one draw per agent per
# chunk, with memory that does not grow with the iteration count.
DATA_CHUNK_ROUNDS = 64


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
        if not np.isfinite(w).all():
            raise ValueError("true_weights must be finite")
        _check_positive("noise_var", self.noise_var)
        size = _one_count(self.samples_per_iteration, "samples_per_iteration")
        object.__setattr__(self, "true_weights", w)
        object.__setattr__(self, "samples_per_iteration", size)

    @property
    def dim(self) -> int:
        return self.true_weights.size


@dataclass(frozen=True)
class LearningConfig:
    step_size: float = 0.05
    iterations: int = 300
    huber_delta: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("step_size", self.step_size)
        object.__setattr__(self, "iterations", _one_count(self.iterations, "iterations"))
        _check_positive("huber_delta", self.huber_delta)


def huber_loss(residual, delta: float):
    """Quadratic within |r| <= delta, linear beyond."""
    _check_positive("huber_delta", delta)
    r = np.abs(np.asarray(residual, dtype=float))
    # The quadratic branch squares at most delta: no overflow where it is not taken.
    q = np.minimum(r, delta)
    out = np.where(r <= delta, 0.5 * q * q, delta * r - 0.5 * delta * delta)
    return float(out) if np.isscalar(residual) else out


def huber_grad_factor(residual, delta: float):
    """Derivative of the Huber loss: the residual clipped to [-delta, delta]."""
    _check_positive("huber_delta", delta)
    out = np.clip(np.asarray(residual, dtype=float), -delta, delta)
    return float(out) if np.isscalar(residual) else out


def generate_batch(streams, model: LinearModelConfig, rounds: int):
    """``rounds`` batches of ``size = model.samples_per_iteration`` samples
    from each agent's stream.

    Returns regressors (rounds, agents, size, dim) and targets
    (rounds, agents, size).  Each stream makes one standard-normal draw of
    shape (rounds, size*dim + size): per round the regressors, then the
    noise.  That is the order of one (size, dim) draw plus one size-long
    noise draw per round, so the values do not depend on how many rounds
    one call covers.
    """
    size = model.samples_per_iteration
    width = size * model.dim
    raw = np.empty((rounds, len(streams), width + size))
    for j, rng in enumerate(streams):
        raw[:, j] = rng.standard_normal((rounds, width + size))
    regressors = np.ascontiguousarray(raw[..., :width]).reshape(
        rounds, len(streams), size, model.dim
    )
    noise = math.sqrt(model.noise_var) * raw[..., width:]
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

    Per round (``iteration`` from 1): ``training_loss``, ``msd`` and
    ``m_converged``, the "every combine column converged" flag.  After the
    round that sets ``diverged``, losses and MSDs read the sentinel.
    ``initial_msd`` is the zero start's MSD, and ``final_weights`` holds
    the benign agents' last weights, one row each in agent-id order.
    """

    iteration: np.ndarray
    training_loss: np.ndarray
    msd: np.ndarray
    m_converged: np.ndarray
    diverged: bool
    initial_msd: float
    final_weights: np.ndarray

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
    dim = model.dim
    benign = topology.benign_agents
    agent_seeds = np.random.SeedSequence(seed).spawn(topology.agent_count)
    streams = [np.random.default_rng(agent_seeds[k]) for k in benign]
    # Row j of ``closed`` is benign receiver j's closed neighborhood.  Each
    # round is one (rows, receivers*dim) matrix, one column per receiver and
    # coordinate: its visible benign agents' weights, ascending by id, then
    # one copy row per malicious neighbor, then padding.  ``index`` holds the
    # benign positions of those weights, each at its rank among the
    # receiver's senders; it and both calls' layouts are built here, once.
    closed = topology.adjacency[benign]
    closed[np.arange(benign.size), benign] = True
    senders = closed[:, benign]
    benign_counts = np.repeat(senders.sum(axis=1), dim)
    malicious_counts = np.repeat(closed[:, topology.malicious].sum(axis=1), dim)
    counts = benign_counts + malicious_counts
    receiver, sender = np.nonzero(senders)
    index = np.zeros((counts.max(), benign.size), dtype=int)
    index[np.cumsum(senders, axis=1)[receiver, sender] - 1, receiver] = sender
    row = np.arange(len(index))[:, None]
    copy_rows = (row >= benign_counts) & (row < counts)
    attacked = np.flatnonzero(malicious_counts)
    craft_benign, craft_malicious = benign_counts[attacked], malicious_counts[attacked]
    craft_rows = craft_benign.max(initial=0)
    craft_layout = Layout.of((craft_rows, attacked.size), craft_benign, "benign_count")
    layout = Layout.of((len(index), counts.size), counts, "counts")
    crafted = np.zeros(counts.size)

    weights = np.zeros((benign.size, dim))
    iters = learning.iterations
    loss_trace = np.full(iters, DIVERGENCE_SENTINEL)
    msd_trace = np.full(iters, DIVERGENCE_SENTINEL)
    m_converged = np.ones(iters, dtype=bool)
    initial_msd = float(np.mean(np.sum((weights - model.true_weights) ** 2, axis=1)))
    diverged = False

    with np.errstate(over="ignore"):
        for i in range(iters):
            j = i % DATA_CHUNK_ROUNDS
            if j == 0:
                chunk_u, chunk_d = generate_batch(
                    streams, model, min(DATA_CHUNK_ROUNDS, iters - i)
                )
            regressors, targets = chunk_u[j], chunk_d[j]
            residuals = _residuals(weights, regressors, targets)
            losses = huber_loss(residuals, learning.huber_delta).mean(axis=-1)
            matrix = adapt(weights, regressors, targets, learning)[index].reshape(len(index), -1)
            if attacked.size:
                # np.take gathers in C order, which the input check keeps uncopied.
                benign_rows = np.take(matrix[:craft_rows], attacked, axis=1)
                crafted[attacked] = craft_attack(benign_rows, attack, craft_malicious, craft_layout)
                np.copyto(matrix, crafted, where=copy_rows)
            combined = aggregate_matrix(aggregator, matrix, layout)
            weights = combined.values.reshape(-1, dim)
            m_converged[i] = combined.converged
            msd = float(np.mean(np.sum((weights - model.true_weights) ** 2, axis=1)))
            loss_trace[i] = min(float(losses.mean()), DIVERGENCE_SENTINEL)
            msd_trace[i] = min(msd, DIVERGENCE_SENTINEL)
            if np.abs(weights).max() > DIVERGENCE_SENTINEL:
                diverged = True
                break

    return ExperimentTrace(
        iteration=np.arange(1, iters + 1),
        training_loss=loss_trace,
        msd=msd_trace,
        m_converged=m_converged,
        diverged=diverged,
        initial_msd=initial_msd,
        final_weights=weights,
    )
