"""Shared test fixtures: random connected bipartite graphs and dense oracles."""

import numpy as np
import scipy.sparse.csgraph as csgraph

from waveletcf.graph import build_adjacency, build_laplacian
from waveletcf.ingest import InteractionSet
from waveletcf.model import sigmoid
from waveletcf.spectral import build_wavelet_pair


def interaction_set_from_pairs(num_users, num_items, pairs):
    return InteractionSet(
        num_users=num_users,
        num_items=num_items,
        pairs=np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2),
        user_ids=tuple(f"u{u}" for u in range(num_users)),
        item_ids=tuple(f"i{i}" for i in range(num_items)),
    )


def random_bipartite(seed, max_nodes=200, density_range=(0.02, 0.10)):
    """Random connected bipartite interaction set with min degree 1.

    Node count is drawn up to `max_nodes`; density within `density_range`.
    Isolated users/items get one random edge, then components are stitched
    together so the graph is connected.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, max_nodes // 2))
    k = int(rng.integers(5, max_nodes - m))
    density = rng.uniform(*density_range)
    mask = rng.random((m, k)) < density
    for u in range(m):
        if not mask[u].any():
            mask[u, rng.integers(k)] = True
    for i in range(k):
        if not mask[:, i].any():
            mask[rng.integers(m), i] = True
    pairs = [(int(u), int(i)) for u, i in zip(*np.nonzero(mask))]

    data = interaction_set_from_pairs(m, k, pairs)
    adj = build_adjacency(data)
    ncomp, labels = csgraph.connected_components(adj.mat, directed=False)
    while ncomp > 1:
        users_in_0 = [u for u in range(m) if labels[u] == 0]
        other = int(np.flatnonzero(labels != 0)[0])
        if other < m:
            items_of_0 = [i for i in range(k) if labels[m + i] == 0]
            pairs.append((other, items_of_0[0]))
        else:
            pairs.append((users_in_0[0], other - m))
        data = interaction_set_from_pairs(m, k, pairs)
        adj = build_adjacency(data)
        ncomp, labels = csgraph.connected_components(adj.mat, directed=False)
    return data


def laplacian_for(data):
    adj = build_adjacency(data)
    return build_laplacian(adj, data.num_users, data.num_items)


def dense_eigh(lap):
    """Dense symmetric eigendecomposition oracle."""
    return np.linalg.eigh(lap.lap.toarray())


def cluster_projector_error(vals, mine, oracle, gap=1e-6):
    """Max projector difference over eigenvalue clusters (handles degeneracy)."""
    start = 0
    worst = 0.0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > gap:
            a = mine[:, start:i]
            b = oracle[:, start:i]
            worst = max(worst, np.abs(a @ a.T - b @ b.T).max())
            start = i
    return worst


def wavelet_pair_forward(params, decomp, bc, t, layers):
    """Propagation oracle that applies the explicit, unthresholded pair.

    Each layer computes sigma(psi Phi diag(lam h) Phi^T psi^-1 z W) with
    psi and psi^-1 assembled as dense N x N matrices. Returns the
    concatenated (users, items) embeddings.
    """
    pair = build_wavelet_pair(decomp, bc, t, drop_threshold=0.0)
    psi = pair.psi.toarray()
    psi_inv = pair.psi_inv.toarray()
    phi = decomp.phi
    m = params.x0.shape[0]
    z = np.vstack([params.x0, params.y0])
    zs = [z]
    for layer in range(layers):
        h = sigmoid(pair.response * params.theta[layer])
        inner = (phi * (decomp.shifted_lambdas * h)) @ phi.T
        z = sigmoid(psi @ inner @ psi_inv @ z @ params.w[layer])
        zs.append(z)
    concat = np.hstack(zs)
    return concat[:m], concat[m:]
