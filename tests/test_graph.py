"""Tests for adjacency/Laplacian construction against dense oracles."""

import numpy as np
import pytest

from helpers import dense_eigh, interaction_set_from_pairs, laplacian_for, random_bipartite

from waveletcf.errors import DataError
from waveletcf.graph import build_adjacency, build_laplacian
from waveletcf.ingest import InteractionSet


def test_smallest_bipartite_adjacency():
    data = interaction_set_from_pairs(1, 1, [(0, 0)])
    adj = build_adjacency(data)
    np.testing.assert_array_equal(adj.toarray(), [[0, 1], [1, 0]])


def test_small_graph_blocks_and_entry_count():
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
    data = interaction_set_from_pairs(3, 4, pairs)
    adj = build_adjacency(data)
    dense = adj.toarray()
    assert dense.shape == (7, 7)
    assert np.all(dense[:3, :3] == 0)
    assert np.all(dense[3:, 3:] == 0)
    assert adj.nnz == 2 * len(pairs)
    np.testing.assert_array_equal(dense, dense.T)


def test_adjacency_order_invariance():
    pairs = [(0, 0), (1, 1), (0, 1), (2, 0)]
    a = build_adjacency(interaction_set_from_pairs(3, 2, pairs))
    b = build_adjacency(interaction_set_from_pairs(3, 2, pairs[::-1]))
    np.testing.assert_array_equal(a.toarray(), b.toarray())


def test_empty_input_rejected():
    data = InteractionSet(
        num_users=1,
        num_items=1,
        pairs=np.empty((0, 2), dtype=np.int64),
        user_ids=("u0",),
        item_ids=("i0",),
    )
    with pytest.raises(DataError):
        build_adjacency(data)


def test_two_node_laplacian_analytic():
    lap = laplacian_for(interaction_set_from_pairs(1, 1, [(0, 0)]))
    np.testing.assert_allclose(lap.lap.toarray(), [[1, -1], [-1, 1]], atol=1e-15)
    vals, _ = dense_eigh(lap)
    np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-12)


def test_star_offdiagonals():
    d = 6
    lap = laplacian_for(interaction_set_from_pairs(1, d, [(0, i) for i in range(d)]))
    dense = lap.lap.toarray()
    expected = -1.0 / np.sqrt(d)
    np.testing.assert_allclose(dense[0, 1:], expected, atol=1e-15)
    np.testing.assert_allclose(np.diag(dense), 1.0, atol=1e-15)


def test_zero_degree_node_named():
    data = interaction_set_from_pairs(2, 2, [(0, 0), (1, 0)])
    adj = build_adjacency(data)
    with pytest.raises(DataError, match="item 1"):
        build_laplacian(adj, 2, 2)


def test_spectrum_bounds_and_psd_on_random_graphs():
    for seed in range(6):
        lap = laplacian_for(random_bipartite(seed, max_nodes=120))
        vals, _ = dense_eigh(lap)
        assert vals.min() >= -1e-10
        assert vals.max() <= 2 + 1e-10
        assert abs(vals.max() - 2.0) <= 1e-6  # bipartite: top eigenvalue is 2
        assert vals.min() <= 1e-10
        dense = lap.lap.toarray()
        np.testing.assert_allclose(np.diag(dense), 1.0, atol=1e-14)


def test_zero_eigenvector_is_sqrt_degree():
    lap = laplacian_for(random_bipartite(17, max_nodes=100))
    v = np.sqrt(lap.degree)
    assert np.linalg.norm(lap.lap.matvec(v)) <= 1e-10 * np.linalg.norm(v)


def test_bipartite_spectrum_symmetric_about_one():
    lap = laplacian_for(random_bipartite(23, max_nodes=80))
    vals, _ = dense_eigh(lap)
    np.testing.assert_allclose(vals + vals[::-1], 2.0, atol=1e-8)
