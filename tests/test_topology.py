import math

import numpy as np
import pytest

from scmsim.topology import (
    NetworkTopology,
    TopologyError,
    _role_failure,
    assign_roles,
    erdos_renyi,
    generate_topology,
)


def complete_graph(n):
    return ~np.eye(n, dtype=bool)


def reference_majority(adjacency, malicious):
    # Benign and malicious counts as int64 products with the closed adjacency.
    closed = (adjacency | np.eye(adjacency.shape[0], dtype=bool)).astype(np.int64)
    benign_counts = closed @ (~malicious).astype(np.int64)
    malicious_counts = closed @ malicious.astype(np.int64)
    return bool((benign_counts[~malicious] > malicious_counts[~malicious]).all())


def reference_connected(adjacency, malicious):
    # A depth-first walk over the benign subgraph from its first agent.
    benign = np.flatnonzero(~malicious)
    if benign.size == 0:
        return False
    sub = adjacency[np.ix_(benign, benign)]
    seen, stack = {0}, [0]
    while stack:
        for j in np.flatnonzero(sub[stack.pop()]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == benign.size


def expected_failure(majority, connected):
    # The failure assign_roles counts: majority is judged before connectivity.
    if not majority:
        return "benign majority"
    return None if connected else "benign connectivity"


def reference_neighborhood(adjacency, k):
    nb = adjacency[k].copy()
    nb[k] = True
    return np.flatnonzero(nb)


def two_triangles():
    adj = np.zeros((6, 6), dtype=bool)
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        adj[a, b] = adj[b, a] = True
    return adj


class TestClosedNeighborhoods:
    # (adjacency, malicious, benign majority, benign connected)
    EDGE_CASES = [
        (complete_graph(5), np.ones(5, dtype=bool), True, False),  # no benign agent
        (np.zeros((1, 1), dtype=bool), np.zeros(1, dtype=bool), True, True),  # one agent
        (complete_graph(3), np.array([True, False, True]), False, True),  # one benign agent
        (complete_graph(5), np.array([False, True, False, True, True]), False, True),
        (two_triangles(), np.zeros(6, dtype=bool), True, False),  # two components
        (two_triangles(), np.eye(6, dtype=bool)[0], True, False),
        (complete_graph(7), np.arange(7) < 3, True, True),  # complete graph
    ]

    def graphs(self):
        for adjacency, malicious, _, _ in self.EDGE_CASES:
            yield adjacency, malicious
        rng = np.random.default_rng(32)
        for g in range(2000):
            k = int(rng.integers(1, 41))
            upper = np.triu(rng.random((k, k)) < rng.uniform(0.02, 1.0), 1)
            malicious = rng.random(k) < rng.uniform(0.0, 0.7)
            yield upper | upper.T, malicious | (g % 50 == 0)

    def test_edge_cases(self):
        for adjacency, malicious, majority, connected in self.EDGE_CASES:
            assert reference_majority(adjacency, malicious) is majority
            assert reference_connected(adjacency, malicious) is connected
            assert _role_failure(adjacency, malicious) == expected_failure(majority, connected)

    def test_matches_reference_formulas(self):
        outcomes = set()
        for adjacency, malicious in self.graphs():
            majority = reference_majority(adjacency, malicious)
            connected = reference_connected(adjacency, malicious)
            assert _role_failure(adjacency, malicious) == expected_failure(majority, connected)
            outcomes.add((majority, connected))
            topo = NetworkTopology(adjacency, malicious)
            for k in {0, topo.agent_count // 2, topo.agent_count - 1}:
                np.testing.assert_array_equal(
                    topo.neighborhood(k), reference_neighborhood(adjacency, k)
                )
        assert len(outcomes) == 4  # the sample reaches every pair of answers


class TestErdosRenyi:
    def test_two_agents_full_probability(self):
        adj = erdos_renyi(2, 1.0, seed=0)
        assert adj[0, 1] and adj[1, 0]
        assert not adj.diagonal().any()

    def test_edge_count_within_binomial_band(self):
        adj = erdos_renyi(32, 0.7, seed=123)
        edges = adj.sum() // 2
        n_pairs = 32 * 31 // 2
        expected = 0.7 * n_pairs
        sigma = np.sqrt(n_pairs * 0.7 * 0.3)
        assert abs(edges - expected) <= 4 * sigma

    def test_deterministic_in_seed(self):
        a = erdos_renyi(20, 0.5, seed=7)
        b = erdos_renyi(20, 0.5, seed=7)
        np.testing.assert_array_equal(a, b)
        c = erdos_renyi(20, 0.5, seed=8)
        assert (a != c).any()

    def test_symmetric(self):
        adj = erdos_renyi(15, 0.4, seed=1)
        np.testing.assert_array_equal(adj, adj.T)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, seed=0)
        # Counts are whole numbers: 32.0 and 6.0 count as 32 and 6, while a
        # fraction, a bool or a list raises a ValueError naming the count.
        want = generate_topology(32, 0.7, 6, 100)
        for agents, malicious in ((32.0, 6), (32, 6.0)):
            got = generate_topology(agents, 0.7, malicious, 100)
            np.testing.assert_array_equal(got.adjacency, want.adjacency)
            np.testing.assert_array_equal(got.malicious, want.malicious)
        for agents, malicious, name in (
            (32.5, 6, "agent_count"), (True, 0, "agent_count"), ([32], 6, "agent_count"),
            (32, 6.5, "num_malicious"), (32, True, "num_malicious"), (32, [6], "num_malicious"),
            (32, -1, "num_malicious"),
        ):
            with pytest.raises(ValueError, match=name):
                generate_topology(agents, 0.7, malicious, 100)
        # The edge probability is one real number: a NumPy float is one, while
        # a bool, an array or a string raises a ValueError naming it.
        got = generate_topology(32, np.float64(0.7), 6, 100)
        np.testing.assert_array_equal(got.adjacency, want.adjacency)
        for bad in (True, np.array([0.7]), "0.7", math.nan):
            with pytest.raises(ValueError, match="edge_probability"):
                generate_topology(32, bad, 6, 100)


class TestAssignRoles:
    def test_zero_malicious_trivially_valid(self):
        adj = erdos_renyi(10, 0.5, seed=3)
        topo = assign_roles(adj, 0, seed=0)
        assert topo.num_malicious == 0
        assert _role_failure(adj, topo.malicious) is None

    def test_complete_graph_five_two(self):
        # every benign node sees 3 benign (incl. itself) vs 2 malicious
        adj = complete_graph(5)
        topo = assign_roles(adj, 2, seed=0)
        assert topo.num_malicious == 2
        assert _role_failure(adj, topo.malicious) is None

    def test_majority_bound_enforced(self):
        adj = complete_graph(8)
        with pytest.raises(ValueError):
            assign_roles(adj, 4, seed=0)

    def test_failure_reports_constraint(self):
        # two disjoint triangles: majority holds with one malicious agent,
        # but the benign agents always split into two components
        with pytest.raises(TopologyError, match="connectivity"):
            assign_roles(two_triangles(), 1, seed=0)

    def test_graph_checked_before_any_draw(self):
        # A nested list is the graph its array is; a graph that is not square
        # is named as such (a list raised AttributeError, a 3x4 array NumPy's
        # broadcast error).
        adj = erdos_renyi(10, 0.7, seed=4)
        want = assign_roles(adj, 2, seed=1)
        got = assign_roles(adj.tolist(), 2, seed=1)
        np.testing.assert_array_equal(got.adjacency, want.adjacency)
        np.testing.assert_array_equal(got.malicious, want.malicious)
        for bad in (np.zeros((3, 4), dtype=bool), np.zeros(4, dtype=bool), [[False, True]]):
            with pytest.raises(TopologyError, match="adjacency must be square"):
                assign_roles(bad, 1, seed=0)

    def test_no_benign_agent_is_not_connected(self):
        assert _role_failure(complete_graph(3), np.ones(3, dtype=bool)) == "benign connectivity"

    def test_paper_scale_assignment_found(self):
        topo = generate_topology(32, 0.7, 12, seed=0)
        assert topo.num_malicious == 12
        assert _role_failure(topo.adjacency, topo.malicious) is None

    def test_generation_deterministic(self):
        a = generate_topology(32, 0.7, 6, seed=5)
        b = generate_topology(32, 0.7, 6, seed=5)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        np.testing.assert_array_equal(a.malicious, b.malicious)
        # Seed 19 draws 4 graphs before one admits a valid role assignment.
        topo = generate_topology(8, 0.3, 1, seed=19)
        assert np.packbits(topo.adjacency).tobytes().hex() == "051a1164419140ac"
        assert np.flatnonzero(topo.malicious).tolist() == [4]


class TestNeighborhood:
    def test_isolated_node_is_self_only(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        topo = NetworkTopology(adj, np.zeros(3, dtype=bool))
        np.testing.assert_array_equal(topo.neighborhood(0), [0])

    def test_complete_graph_neighborhood_is_everyone(self):
        topo = NetworkTopology(complete_graph(4), np.zeros(4, dtype=bool))
        np.testing.assert_array_equal(topo.neighborhood(2), [0, 1, 2, 3])

    def test_symmetry(self):
        topo = generate_topology(16, 0.4, 0, seed=2)
        for k in range(16):
            for ell in topo.neighborhood(k):
                assert k in topo.neighborhood(int(ell))

    def test_invalid_id_rejected(self):
        topo = NetworkTopology(complete_graph(3), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="agent id 3 out of range"):
            topo.neighborhood(3)
        # Only a whole number is an id: a bool would index as a new axis and
        # mark all 64 entries, a fraction or a string reach NumPy's raw
        # IndexError or TypeError.
        topo = NetworkTopology(complete_graph(8), np.zeros(8, dtype=bool))
        for k in (True, False, 1.5, "2", None, [1]):
            with pytest.raises(ValueError, match="agent id"):
                topo.neighborhood(k)
        np.testing.assert_array_equal(topo.neighborhood(np.int64(2)), np.arange(8))

    def test_malformed_topology_rejected(self):
        bad = np.zeros((3, 3), dtype=bool)
        bad[0, 1] = True  # asymmetric
        with pytest.raises(TopologyError):
            NetworkTopology(bad, np.zeros(3, dtype=bool))
        with_loop = np.eye(3, dtype=bool)
        with pytest.raises(TopologyError):
            NetworkTopology(with_loop, np.zeros(3, dtype=bool))
        with pytest.raises(TopologyError, match="must be square"):
            NetworkTopology(np.zeros((2, 3), dtype=bool), np.zeros(2, dtype=bool))
        with pytest.raises(TopologyError, match="role vector length"):
            NetworkTopology(complete_graph(3), np.zeros(4, dtype=bool))


# None would draw fresh entropy and True run as seed 1; a fraction, a string
# and a negative number would reach NumPy's own unnamed errors.
BAD_SEEDS = [None, True, 1.5, "a", -3]


class TestSeeds:
    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    @pytest.mark.parametrize("entry", ["erdos_renyi", "assign_roles", "generate_topology"])
    def test_seed_must_be_a_whole_number(self, entry, seed):
        calls = {
            "erdos_renyi": lambda: erdos_renyi(6, 0.5, seed),
            "assign_roles": lambda: assign_roles(complete_graph(6), 1, seed),
            "generate_topology": lambda: generate_topology(12, 0.7, 2, seed),
        }
        with pytest.raises(ValueError, match="seed must be a whole number"):
            calls[entry]()

    def test_whole_seeds_of_any_size_and_spawned_sequences(self):
        # A NumPy integer draws what its int does and a seed past 2**64 runs.
        # The two steps take the SeedSequences generate_topology spawns for
        # them; generate_topology takes none, as spawning changes the caller's.
        np.testing.assert_array_equal(erdos_renyi(9, 0.5, np.uint64(7)), erdos_renyi(9, 0.5, 7))
        assert generate_topology(12, 0.7, 2, 2**70).num_malicious == 2
        ss = np.random.SeedSequence(7)
        np.testing.assert_array_equal(erdos_renyi(9, 0.5, ss), erdos_renyi(9, 0.5, ss))
        assert assign_roles(complete_graph(6), 1, ss).num_malicious == 1
        with pytest.raises(ValueError, match="seed must be a whole number"):
            generate_topology(12, 0.7, 2, ss)
