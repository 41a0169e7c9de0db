"""Decentralized linear-regression learning under attack.

Each benign agent repeatedly takes a Huber-loss stochastic gradient step on
fresh local data (adapt) and then aggregates the intermediate weights of
its neighborhood with a robust rule (combine).  Malicious agents skip
adaptation and report per-receiver crafted vectors, so the learning state
is one row of weights per benign agent.  The rules of one call learn in
lockstep on the same data: the state is one (rules, benign, dim) array,
and a round is one padded matrix per rule, a column per receiver and
coordinate, laid out once per run from the receivers' closed
neighborhoods in the adjacency.  One ``adapt`` call and one gather fill
every rule's benign rows, one ``craft_attack`` call fills every rule's
copy rows, and one ``aggregate_matrix`` call per rule combines its
matrix, giving each receiver the bits of calls on its rows alone and each
rule the bits of its own run.  A rule that diverges leaves the round, and
the others go on.  All randomness derives from per-agent streams spawned
from the experiment seed, so traces are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, craft_attack
from .estimators import (
    AggregatorSpec,
    Layout,
    _check_positive,
    _check_rules,
    _check_seed,
    _one_count,
    aggregate_matrix,
)
from .topology import NetworkTopology

# Traces are capped here; any weight beyond it marks the run as diverged.
DIVERGENCE_SENTINEL = 1e30
# Agents' data is drawn this many rounds at a time: one draw per agent per
# chunk, with memory that does not grow with the iteration count.
DATA_CHUNK_ROUNDS = 64


def draw_true_weights(dim: int, seed) -> np.ndarray:
    """Ground-truth model drawn once per experiment, standard normal."""
    dim = _one_count(dim, "dim")
    return np.random.default_rng(_check_seed(seed)).standard_normal(dim)


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
    residuals: np.ndarray | None = None,
) -> np.ndarray:
    """Stochastic gradient step on the batch-averaged Huber loss.

    Leading axes index agents: ``weights`` is (..., dim), ``regressors``
    (..., batch, dim) and ``targets`` (..., batch).  Each agent's step is the
    same arithmetic as a single-agent call, so stacking agents changes no bit.
    ``residuals``, when given, are this batch's ``targets - regressors @
    weights`` as ``_residuals`` computes them, and are not computed again.
    """
    if regressors.shape[-2] == 0:
        raise ValueError("adapt requires a non-empty batch")
    if residuals is None:
        residuals = _residuals(weights, regressors, targets)
    g = huber_grad_factor(residuals, learning.huber_delta)
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
        """Mean training loss over the last ``window`` rounds, or all of them if fewer."""
        return float(self.training_loss[-_one_count(window, "window"):].mean())


def run_experiment(
    topology: NetworkTopology,
    model: LinearModelConfig,
    learning: LearningConfig,
    aggregator: AggregatorSpec | Sequence[AggregatorSpec],
    attack: AttackSpec | None,
    seed,
) -> ExperimentTrace | list[ExperimentTrace]:
    """Simulate the full network for ``learning.iterations`` rounds under
    one rule, or under each rule of a sequence in lockstep.

    One ``AggregatorSpec`` gives one trace; a sequence gives one trace per
    spec, in order, each byte for byte that spec's own run: the rules share
    the data draws, the set-up and each round's adapt and craft calls.  The
    training loss is the benign-agent mean of the Huber loss on each
    agent's fresh batch, evaluated at its pre-adaptation weights; the MSD is
    the benign-agent mean of ||w_k - w_true||^2 after combining.  Once any
    weight magnitude of a rule exceeds ``DIVERGENCE_SENTINEL`` its run is
    marked diverged, keeps that round's weights, and its remaining trace
    rows are frozen at the sentinel while the other rules go on.  A crafted
    value past the float range fails the whole call, as it fails the run
    of the rule it was crafted for.
    """
    single = isinstance(aggregator, AggregatorSpec)
    specs = [aggregator] if single else _check_rules(aggregator, "aggregator")
    if not specs:
        raise ValueError("run_experiment needs at least one aggregator")
    if not (attack is None or isinstance(attack, AttackSpec)):
        raise ValueError(f"attack must be None or an AttackSpec, got {attack!r}")
    seed = _check_seed(seed, sequence=False)
    if attack is None and topology.num_malicious > 0:
        raise ValueError("an attack scheme is required when malicious agents are present")
    dim = model.dim
    benign = topology.benign_agents
    agent_seeds = np.random.SeedSequence(seed).spawn(topology.agent_count)
    streams = [np.random.default_rng(agent_seeds[k]) for k in benign]
    # Row j of ``closed`` is benign receiver j's closed neighborhood.  Each
    # rule's round is one (rows, receivers*dim) matrix, one column per
    # receiver and coordinate: its visible benign agents' weights, ascending
    # by id, then one copy row per malicious neighbor, then padding.
    # ``index`` holds the benign positions of those weights, each at its
    # rank among the receiver's senders; it and the combine layout are
    # built here, once.
    closed = topology.adjacency[benign]
    closed[np.arange(benign.size), benign] = True
    senders = closed[:, benign]
    benign_counts = np.repeat(senders.sum(axis=1), dim)
    malicious_counts = np.repeat(closed[:, topology.malicious].sum(axis=1), dim)
    counts = benign_counts + malicious_counts
    receiver, sender = np.nonzero(senders)
    index = np.zeros((counts.max(), benign.size), dtype=int)
    index[np.cumsum(senders, axis=1)[receiver, sender] - 1, receiver] = sender
    rows, columns = index.shape[0], counts.size
    row = np.arange(rows)[:, None]
    copy_rows = (row >= benign_counts) & (row < counts)
    attacked = np.flatnonzero(malicious_counts)
    craft_benign, craft_malicious = benign_counts[attacked], malicious_counts[attacked]
    craft_rows = craft_benign.max(initial=0)
    layout = Layout.of((rows, columns), counts, "counts")

    # The state is one (active rules, benign, dim) array, and ``active``
    # holds each of its rows' spec; a diverged rule's row leaves it.
    rules = len(specs)
    active = np.arange(rules)
    weights = np.zeros((rules, benign.size, dim))
    matrices = np.empty((rules, rows, columns))
    crafted = np.zeros((rules, columns))
    craft_layout = None
    iters = learning.iterations
    loss_trace = np.full((rules, iters), DIVERGENCE_SENTINEL)
    msd_trace = np.full((rules, iters), DIVERGENCE_SENTINEL)
    m_converged = np.ones((rules, iters), dtype=bool)
    initial_msd = float(np.mean(np.sum((weights[0] - model.true_weights) ** 2, axis=1)))
    diverged = np.zeros(rules, dtype=bool)
    final_weights = np.empty_like(weights)

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
            n = active.size
            matrix = matrices[:n]
            # mode="clip" lets np.take write straight into ``out``.
            np.take(adapt(weights, regressors, targets, learning, residuals), index, axis=1,
                    out=matrix.reshape(n, rows, benign.size, dim), mode="clip")
            if attacked.size:
                if craft_layout is None:
                    craft_layout = Layout.of(
                        (craft_rows, n * attacked.size), np.tile(craft_benign, n), "benign_count"
                    )
                    craft_counts = np.tile(craft_malicious, n)
                # Every active rule's attacked columns side by side, rule by rule.
                benign_rows = np.take(matrix[:, :craft_rows].transpose(1, 0, 2), attacked, axis=2)
                crafted[:n, attacked] = craft_attack(
                    benign_rows.reshape(craft_rows, -1), attack, craft_counts, craft_layout
                ).reshape(n, -1)
                np.copyto(matrix, crafted[:n, None], where=copy_rows)
            for slot, r in enumerate(active):
                combined = aggregate_matrix(specs[r], matrix[slot], layout)
                weights[slot] = combined.values.reshape(-1, dim)
                m_converged[r, i] = combined.converged
            msd = np.sum((weights - model.true_weights) ** 2, axis=2).mean(axis=1)
            loss_trace[active, i] = np.minimum(losses.mean(axis=1), DIVERGENCE_SENTINEL)
            msd_trace[active, i] = np.minimum(msd, DIVERGENCE_SENTINEL)
            gone = np.abs(weights).max(axis=(1, 2)) > DIVERGENCE_SENTINEL
            if gone.any():
                diverged[active[gone]] = True
                final_weights[active[gone]] = weights[gone]
                active, weights, craft_layout = active[~gone], weights[~gone], None
                if not active.size:
                    break
    final_weights[active] = weights

    traces = [
        ExperimentTrace(
            iteration=np.arange(1, iters + 1),
            training_loss=loss_trace[r],
            msd=msd_trace[r],
            m_converged=m_converged[r],
            diverged=bool(diverged[r]),
            initial_msd=initial_msd,
            final_weights=final_weights[r],
        )
        for r in range(rules)
    ]
    return traces[0] if single else traces
