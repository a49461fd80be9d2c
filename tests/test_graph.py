import numpy as np
import pytest

from coopgrid.graph import (
    CommGraph,
    GraphError,
    metropolis_weights,
    run_consensus,
)


def random_connected_graph(rng, n):
    ids = list(range(1, n + 1))
    edges = [(ids[rng.integers(0, k)], ids[k]) for k in range(1, n)]   # random tree
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(ids, size=2, replace=False)
        edges.append((int(a), int(b)))
    return ids, edges


def test_path_graph_weights_exact():
    g = metropolis_weights([1, 2, 3], [(1, 2), (2, 3)])
    expected = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    assert np.allclose(g.weights, expected, atol=1e-15)


def test_weights_doubly_stochastic_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ids, edges = random_connected_graph(rng, int(rng.integers(2, 12)))
        g = metropolis_weights(ids, edges)
        w = g.weights
        assert np.allclose(w, w.T, atol=1e-15)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(w >= -1e-15)
        # exactly the Metropolis rule on the distinct undirected edges
        pairs = {(min(a, b), max(a, b)) for a, b in edges}
        deg = {i: sum(i in e for e in pairs) for i in ids}
        expected = np.zeros_like(w)
        for a, b in pairs:
            i, j = g.node_ids.index(a), g.node_ids.index(b)
            expected[i, j] = expected[j, i] = 1.0 / (1.0 + max(deg[a], deg[b]))
        np.fill_diagonal(expected, 1.0 - expected.sum(axis=1))
        assert g.edges == tuple(sorted(pairs))
        assert np.array_equal(w, expected)


def test_graph_rejects_bad_inputs():
    for ids, edges, message in [
        ([1, 2, 3], [(1, 2)], "communication graph is not connected"),      # 3 unreachable
        ([], [], "communication graph is not connected"),                  # no node at all
        ([1, 2], [(1, 1), (1, 2)], "self-loop on node 1"),
        ([1, 2], [(1, 3)], r"edge \(1, 3\) references an unknown node"),
        ([1, 2], [(1, 2), (2, 2), (3, 1)], "self-loop on node 2"),          # the first bad edge
        ([1, 2], [(1, 2), (3, 1), (2, 2)], r"edge \(3, 1\) references an unknown node"),
        ([], [(1, 2)], r"edge \(1, 2\) references an unknown node"),
        ([1, 1, 2], [(1, 2)], "duplicate node ids"),
    ]:
        with pytest.raises(GraphError, match=f"^{message}$"):
            metropolis_weights(ids, edges)


def test_duplicate_and_reversed_edges_collapse():
    g = metropolis_weights([1, 2], [(1, 2), (2, 1), (1, 2)])
    assert g.edges == ((1, 2),)


def test_is_connected():
    assert metropolis_weights([1, 2, 3], [(1, 2), (2, 3)]).edges == ((1, 2), (2, 3))
    assert metropolis_weights([4, 1, 3, 2], [(4, 1), (3, 2), (2, 4)]).node_ids == (1, 2, 3, 4)
    for ids, edges in (([1, 2, 3], [(1, 2)]), ([1, 2, 3, 4], [(1, 2), (3, 4)])):
        with pytest.raises(GraphError, match="not connected"):
            metropolis_weights(ids, edges)


def test_mixing_step_conserves_mass_and_contracts():
    # one round of run_consensus is one product with the weights
    rng = np.random.default_rng(5)
    for _ in range(30):
        ids, edges = random_connected_graph(rng, int(rng.integers(2, 10)))
        g = metropolis_weights(ids, edges)
        values = rng.uniform(-50.0, 50.0, len(ids))
        total = values.sum()
        spread = values.max() - values.min()
        for _ in range(20):
            values = g.weights @ values
            assert abs(values.sum() - total) <= 1e-12 * max(1.0, abs(total))
            new_spread = values.max() - values.min()
            assert new_spread <= spread + 1e-12
            spread = new_spread


def test_mixing_step_handles_vector_values():
    g = metropolis_weights([1, 2, 3], [(1, 2), (2, 3)])
    vals = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    mixed = g.weights @ vals
    assert mixed.shape == (3, 2)
    assert np.allclose(mixed.sum(axis=0), [6.0, 60.0], atol=1e-12)
    out = run_consensus(vals, g, tol=1e-9)
    assert out.values.shape == (3, 2)
    assert np.abs(out.values - [2.0, 20.0]).max() <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_consensus_refuses_a_non_finite_start(bad):
    # a non-finite value has no average to reach: refused before any round
    g = metropolis_weights([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(GraphError, match="not finite"):
        run_consensus([1.0, bad, 3.0], g)
    vals = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, bad]])
    with pytest.raises(GraphError, match="not finite"):
        run_consensus(vals, g)


def test_run_consensus_reaches_average():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ids, edges = random_connected_graph(rng, int(rng.integers(2, 8)))
        g = metropolis_weights(ids, edges)
        x0 = rng.uniform(-10.0, 10.0, len(ids))
        out = run_consensus(x0, g, tol=1e-9)
        assert np.abs(out.values - x0.mean()).max() <= 1e-9


def test_run_consensus_reaches_the_mean_of_starts_whose_sum_overflows():
    # the mean is summed from the values divided by n, and the stop test asks
    # for no finer agreement than the rounding of the rounds run so far
    g = metropolis_weights([1, 2, 3], [(1, 2), (2, 3)])
    out = run_consensus([1e308, 1e308, 0.0], g, tol=1e-9)
    assert 0 < out.iteration < 1000
    error = np.abs(out.values - 1e308 / 3 * 2).max()
    assert error <= (out.iteration + 1) * 3 * np.spacing(1e308) and error <= 1e-13 * 1e308


def test_run_consensus_complete_graph_is_one_round():
    # K4 Metropolis weights equal 1/4 everywhere: exact average in one mix
    edges = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    g = metropolis_weights(range(1, 5), edges)
    out = run_consensus([4.0, 0.0, -2.0, 6.0], g, tol=1e-12)
    assert out.iteration <= 1
    assert np.allclose(out.values, 2.0, atol=1e-12)


def test_run_consensus_ring_and_star_round_counts():
    ring = metropolis_weights(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    star = metropolis_weights(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    x0 = [10.0, -4.0, 3.0, 7.0]
    for g in (ring, star):
        out = run_consensus(x0, g, tol=1e-9)
        assert 0 < out.iteration <= 200
        assert np.abs(out.values - 4.0).max() <= 1e-9


def test_run_consensus_single_node_trivial():
    g = CommGraph((1,), (), np.array([[1.0]]))
    out = run_consensus([5.0], g, tol=1e-12)
    assert out.iteration == 0
    assert out.values[0] == 5.0


def test_graphs_compare_by_nodes_and_edges():
    # the weights follow from the nodes and edges, so equality reads only those
    a = metropolis_weights((1, 2, 3), [(1, 2), (2, 3)])
    assert a == metropolis_weights((1, 2, 3), [(3, 2), (2, 1)])
    assert a != metropolis_weights((1, 2, 3), [(1, 2), (1, 3)])
    assert a != metropolis_weights((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4)])
