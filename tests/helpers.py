"""Shared test fixtures: random connected bipartite graphs, a planted
two-block dataset, and dense or analytic oracles."""

import numpy as np
import scipy.sparse.csgraph as csgraph

from waveletcf.errors import ConfigError, DataError
from waveletcf.graph import build_adjacency, build_laplacian
from waveletcf.ingest import CANONICAL_MAGIC, CANONICAL_VERSION, InteractionSet
from waveletcf.model import ForwardTrace, ModelParams, sigmoid
from waveletcf.spectral import build_wavelet_pair


def interaction_set_from_pairs(num_users, num_items, pairs):
    return InteractionSet(
        num_users=num_users,
        num_items=num_items,
        pairs=np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2),
        user_ids=tuple(f"u{u}" for u in range(num_users)),
        item_ids=tuple(f"i{i}" for i in range(num_items)),
    )


def reference_serialize(data: InteractionSet, seed: int) -> bytes:
    """Writer oracle: the canonical dataset text written one f-string per
    pair line and per id, then encoded as UTF-8."""
    lines = [
        f"{CANONICAL_MAGIC} {CANONICAL_VERSION} {data.num_users} "
        f"{data.num_items} {data.num_pairs} {seed}\n"
    ]
    for u, i in data.pairs.tolist():
        lines.append(f"{u}\t{i}\n")
    lines.append("#users\n")
    lines += [uid + "\n" for uid in data.user_ids]
    lines.append("#items\n")
    lines += [iid + "\n" for iid in data.item_ids]
    return "".join(lines).encode("utf-8")


def synthetic_two_block(
    num_users: int = 300,
    num_items: int = 200,
    per_user: int = 105,
    noise: float = 0.05,
    seed: int = 7,
) -> InteractionSet:
    """Two user clusters, each preferring its own half of the catalog.

    Every user interacts with `per_user` distinct items; a binomial
    `noise` fraction of them is drawn from the other cluster's half. The
    planted blocks give any structure-aware model a large, measurable edge
    over popularity and random baselines.
    """
    if num_users < 2 or num_items < 2:
        raise ConfigError("need at least 2 users and 2 items")
    if not (0 <= noise <= 1):
        raise ConfigError(f"noise must lie in [0,1], got {noise}")
    if per_user > num_items:
        raise ConfigError(
            f"per_user={per_user} exceeds the catalog size {num_items}"
        )
    rng = np.random.default_rng(seed)
    half_u = num_users // 2
    half_i = num_items // 2
    all_items = np.arange(num_items)
    pairs = set()
    for u in range(num_users):
        block = 0 if u < half_u else 1
        own = all_items[half_i * block: half_i * (block + 1)]
        other = np.setdiff1d(all_items, own)
        n_cross = int(rng.binomial(per_user, noise))
        n_own = min(per_user - n_cross, len(own))
        n_cross = per_user - n_own
        for i in rng.choice(own, size=n_own, replace=False):
            pairs.add((u, int(i)))
        for i in rng.choice(other, size=n_cross, replace=False):
            pairs.add((u, int(i)))
    data = InteractionSet(
        num_users=num_users,
        num_items=num_items,
        pairs=np.array(sorted(pairs), dtype=np.int64),
        user_ids=tuple(f"u{u}" for u in range(num_users)),
        item_ids=tuple(f"i{i}" for i in range(num_items)),
    )
    data.validate(require_coverage=True)
    return data


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


def expected_uniform_recall(
    train: InteractionSet, test: InteractionSet, k: int
) -> float:
    """Analytic Recall@k of a uniformly random ranking.

    For each eligible user the chance any held-out item lands in the top k
    of a random permutation of the candidate pool is k / pool_size.
    """
    train_deg = train.user_degrees()
    test_deg = test.user_degrees()
    vals = []
    for u in range(test.num_users):
        if test_deg[u] == 0:
            continue
        pool = train.num_items - train_deg[u]
        vals.append(min(1.0, k / pool))
    if not vals:
        raise DataError("no test users with held-out items")
    return float(np.mean(vals))


def score_pairs(trace: ForwardTrace, users: np.ndarray, items: np.ndarray):
    """Scores for aligned (user, item) index arrays."""
    return np.sum(trace.concat_users[users] * trace.concat_items[items], axis=1)


def masked_sigmoid(x):
    """The logistic function evaluated branch by branch: 1 / (1 + e^-x) on
    x >= 0 and e^x / (1 + e^x) elsewhere, each on its own masked subset."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_backward(trace, batch, params, oper, eta):
    """Gradient oracle: the batch loss gradient scattered triple by triple
    with `np.add.at` into an N x (L+1)P zero buffer, then pushed down
    through every layer on all N rows."""
    m = len(trace.concat_users)
    cu = trace.concat_users
    ci = trace.concat_items
    us, iis, js = batch[:, 0], batch[:, 1], batch[:, 2]
    margins = np.sum(cu[us] * (ci[iis] - ci[js]), axis=1)
    dz = -masked_sigmoid(-margins)

    d_concat = np.zeros((m + len(ci), cu.shape[1]))
    np.add.at(d_concat, us, dz[:, None] * (ci[iis] - ci[js]))
    np.add.at(d_concat, m + iis, dz[:, None] * cu[us])
    np.add.at(d_concat, m + js, -dz[:, None] * cu[us])
    if eta != 0.0:
        du = np.unique(us)
        di = np.unique(iis)
        d_concat[du] += eta * cu[du]
        d_concat[m + di] += eta * ci[di]

    width = params.x0.shape[1]
    layers = len(params.w)
    grad_w = [None] * layers
    grad_theta = [None] * layers
    d_next = d_concat[:, layers * width:]
    for layer in range(layers - 1, -1, -1):
        h, coeff = trace.caches[layer].h, trace.caches[layer].coeff
        act = trace.zs[layer + 1]
        e = oper.phi.T @ (d_next * act * (1.0 - act))
        d = (oper.lam * h)[:, None]
        grad_w[layer] = (d * coeff).T @ e
        d_scaled = e @ params.w[layer].T
        d_f = np.sum(d_scaled * coeff, axis=1)
        grad_theta[layer] = d_f * oper.lam * oper.g * h * (1.0 - h)
        d_z = oper.phi @ (d * d_scaled)
        d_next = d_concat[:, layer * width: (layer + 1) * width] + d_z
    return ModelParams(x0=d_next[:m], y0=d_next[m:], w=grad_w, theta=grad_theta)
