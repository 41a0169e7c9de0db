"""Agent communication graphs and malicious-role assignment.

Graphs are undirected without stored self-loops; neighborhoods include the
agent itself at query time.  Role assignment rejects configurations where
any benign agent would face a malicious-majority neighborhood or where the
benign agents do not form a connected subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _check_real, _check_seed, _one_count

# generate_topology draws up to this many graphs before it gives up, and
# assign_roles up to this many role assignments per graph.
MAX_GRAPH_ATTEMPTS = 100
MAX_ROLE_ATTEMPTS = 100


class TopologyError(RuntimeError):
    """Raised when a valid topology cannot be generated or is malformed."""


def erdos_renyi(agent_count: int, edge_probability: float, seed) -> np.ndarray:
    """Random graph: each unordered pair connected independently with prob p."""
    agent_count = _one_count(agent_count, "agent_count", minimum=2)
    message = "edge_probability must be a real number in (0, 1]"
    if not 0.0 < _check_real(edge_probability, message) <= 1.0:
        raise ValueError(f"{message}, got {edge_probability!r}")
    rng = np.random.default_rng(_check_seed(seed))
    adjacency = np.zeros((agent_count, agent_count), dtype=bool)
    iu = np.triu_indices(agent_count, k=1)
    adjacency[iu] = rng.random(iu[0].size) < edge_probability
    return adjacency | adjacency.T


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    adjacency: np.ndarray  # (K, K) bool, symmetric, zero diagonal
    malicious: np.ndarray  # (K,) bool

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        mal = np.asarray(self.malicious, dtype=bool).ravel()
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise TopologyError("adjacency must be square")
        if adj.diagonal().any():
            raise TopologyError("adjacency must not store self-loops")
        if not np.array_equal(adj, adj.T):
            raise TopologyError("adjacency must be symmetric")
        if mal.size != adj.shape[0]:
            raise TopologyError("role vector length must match agent count")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "malicious", mal)

    @property
    def agent_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_malicious(self) -> int:
        return int(self.malicious.sum())

    @property
    def benign_agents(self) -> np.ndarray:
        return np.flatnonzero(~self.malicious)

    def neighborhood(self, k: int) -> np.ndarray:
        """Agent ids adjacent to k, plus k itself, sorted."""
        k = _one_count(k, "agent id", minimum=0)
        if k >= self.agent_count:
            raise ValueError(f"agent id {k} out of range")
        return np.flatnonzero(_closed_neighborhoods(self.adjacency, np.array([k]))[0])


def _closed_neighborhoods(adjacency: np.ndarray, agents: np.ndarray) -> np.ndarray:
    # One boolean row per listed agent: its neighbors and the agent itself.
    return adjacency[agents] | (np.arange(adjacency.shape[0]) == agents[:, None])


def _role_failure(adjacency: np.ndarray, malicious: np.ndarray) -> str | None:
    """The first constraint a role draw breaks, majority before connectivity, or None."""
    benign = np.flatnonzero(~malicious)
    heard = _closed_neighborhoods(adjacency, benign)
    if not (heard[:, ~malicious].sum(1) > heard[:, malicious].sum(1)).all():
        return "benign majority"
    # Grow the set reached from the first benign agent until it stops growing.
    heard = heard[:, benign]
    reached, count = np.arange(benign.size) == 0, 0
    while reached.sum() > count:
        count = reached.sum()
        reached = heard[reached].any(axis=0)
    return None if 0 < count == benign.size else "benign connectivity"


def assign_roles(adjacency: np.ndarray, num_malicious: int, seed) -> NetworkTopology:
    """Mark a uniformly random subset malicious, resampling until valid.

    Validity requires the benign-majority condition at every benign agent
    and a connected benign subgraph.  Raises ``TopologyError`` naming the
    constraints that failed after ``MAX_ROLE_ATTEMPTS`` draws, or, before
    any draw, naming what makes the graph malformed.
    """
    adjacency = NetworkTopology(adjacency, np.zeros(np.shape(adjacency)[:1], bool)).adjacency
    agent_count = adjacency.shape[0]
    num_malicious = _one_count(num_malicious, "num_malicious", minimum=0)
    if not num_malicious < agent_count / 2:
        raise ValueError(f"num_malicious must be below K/2, got {num_malicious} of {agent_count}")
    rng = np.random.default_rng(_check_seed(seed))
    failures = {"benign majority": 0, "benign connectivity": 0}
    for _ in range(MAX_ROLE_ATTEMPTS):
        malicious = np.zeros(agent_count, dtype=bool)
        malicious[rng.choice(agent_count, size=num_malicious, replace=False)] = True
        failure = _role_failure(adjacency, malicious)
        if failure is None:
            return NetworkTopology(adjacency, malicious)
        failures[failure] += 1
    detail = ", ".join(f"{name} failed {n}x" for name, n in failures.items() if n)
    raise TopologyError(
        f"no valid role assignment in {MAX_ROLE_ATTEMPTS} attempts ({detail})"
    )


def generate_topology(
    agent_count: int, edge_probability: float, num_malicious: int, seed
) -> NetworkTopology:
    """Sample a graph and role assignment, regenerating the graph if needed."""
    root = np.random.SeedSequence(_check_seed(seed, sequence=False))
    last_error: TopologyError | None = None
    for _ in range(MAX_GRAPH_ATTEMPTS):
        # The i-th child spawned one at a time is spawn(MAX_GRAPH_ATTEMPTS)[i].
        graph_seed, role_seed = root.spawn(1)[0].spawn(2)
        adjacency = erdos_renyi(agent_count, edge_probability, graph_seed)
        try:
            return assign_roles(adjacency, num_malicious, role_seed)
        except TopologyError as err:
            last_error = err
    raise TopologyError(
        f"no valid topology in {MAX_GRAPH_ATTEMPTS} graph attempts: {last_error}"
    )
