"""Shared test fixtures: random connected bipartite graphs, a planted
two-block dataset, and dense or analytic oracles."""

import math
import types

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from waveletcf.config import ModelConfig
from waveletcf.errors import ConfigError, DataError
from waveletcf.graph import build_adjacency, build_laplacian
from waveletcf.ingest import (
    CANONICAL_MAGIC,
    CANONICAL_VERSION,
    InteractionLog,
    InteractionSet,
    _header,
)
from waveletcf.model import ForwardTrace, ModelParams, sigmoid
from waveletcf.spectral import (
    KAPPA_BOUNDS,
    KAPPA_TOL,
    boxcox_transform,
    build_wavelet_pair,
)
from waveletcf.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def interaction_set_from_pairs(num_users, num_items, pairs):
    return InteractionSet(
        num_users=num_users,
        num_items=num_items,
        pairs=np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2),
        user_ids=tuple(f"u{u}" for u in range(num_users)),
        item_ids=tuple(f"i{i}" for i in range(num_items)),
    )


def from_rows(rows) -> InteractionLog:
    """Id-coding oracle: a list of (user_id, item_id) rows as a log, each
    column's ids numbered through a dict in order of first appearance."""
    user_codes, item_codes = {}, {}
    n = len(rows)
    users = np.fromiter(
        (user_codes.setdefault(u, len(user_codes)) for u, _ in rows), np.int64, n
    )
    items = np.fromiter(
        (item_codes.setdefault(i, len(item_codes)) for _, i in rows), np.int64, n
    )
    return InteractionLog(users, items, tuple(user_codes), tuple(item_codes))


def reference_rows(path) -> list:
    """Log parser oracle: the per-line rules applied to every line of the
    file as text mode reads it, one leading byte order mark dropped,
    giving (user_id, item_id) rows in file order or the first line's
    DataError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    delim, rows = None, []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if delim is None:
            delim = "\t" if "\t" in line else ","
        cols = line.split(delim)
        if len(cols) < 2:
            raise DataError(f"{path}: line {lineno}: expected at least 2 columns")
        user_id, item_id = cols[0].strip(), cols[1].strip()
        if not user_id or not item_id:
            raise DataError(f"{path}: line {lineno}: empty user or item id")
        for col, kind, parse in ((2, "rating", float), (3, "timestamp", int)):
            if len(cols) > col and cols[col].strip():
                try:
                    parse(cols[col])
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: unparseable {kind} {cols[col]!r}"
                    ) from None
        rows.append((user_id, item_id))
    return rows


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


def reference_split(data: InteractionSet, spec):
    """Split oracle: each user's pairs gathered in shuffled order, cut by
    rank, repaired from lexsorted candidates and left to `InteractionSet`
    to sort."""
    rng = np.random.default_rng(spec.seed)
    degrees = data.user_degrees()
    starts = np.cumsum(degrees) - degrees
    perms = [starts[u] + rng.permutation(n) for u, n in enumerate(degrees) if n]
    shuffled = data.pairs[np.concatenate(perms)] if perms else data.pairs
    rank = np.arange(data.num_pairs) - np.repeat(starts, degrees)
    n_train = np.maximum(1, np.floor(degrees * spec.train_fraction).astype(np.int64))
    cap = spec.per_user_cap or n_train
    trained = rank < np.repeat(n_train, degrees)
    kept = rank < np.repeat(np.minimum(n_train, cap), degrees)
    train, capped, test = shuffled[kept], shuffled[trained & ~kept], shuffled[~trained]

    def promote(train, source):
        covered = np.zeros(data.num_items, dtype=bool)
        covered[train[:, 1]] = True
        rows = np.flatnonzero(~covered[source[:, 1]])
        rows = rows[np.lexsort((source[rows, 0], source[rows, 1]))]
        _, first = np.unique(source[rows, 1], return_index=True)
        return rows[first]

    train = np.concatenate((train, capped[promote(train, capped)]))
    moved = promote(train, test)
    train = np.concatenate((train, test[moved]))
    test = np.delete(test, moved, axis=0)

    def assemble(pairs):
        return InteractionSet(
            num_users=data.num_users,
            num_items=data.num_items,
            pairs=pairs,
            user_ids=data.user_ids,
            item_ids=data.item_ids,
        )

    return assemble(train), assemble(test)


def canonical_header(path) -> dict:
    """Header fields of a canonical dataset file, read from its first line
    only and parsed as `load_canonical` parses them."""
    with open(path, "r", encoding="utf-8") as fh:
        return _header(path, fh.readline())


def _boxcox_loglik(values, log_values, kappa):
    """Power-transform log-likelihood at one exponent, in scalar
    arithmetic: the oracle of the fit's array `_loglik`."""
    y = boxcox_transform(values, kappa)
    var = y.var()
    if var <= 0:
        return -np.inf
    return -0.5 * len(values) * math.log(var) + (kappa - 1.0) * log_values.sum()


def reference_kappa_grid(values):
    """Grid-search oracle: the log-likelihood at each of the fit's 1001
    grid exponents, one call per exponent. Returns (grid, log-likelihoods)."""
    values = np.asarray(values, dtype=np.float64)
    logs = np.log(values)
    grid = np.linspace(*KAPPA_BOUNDS, 1001)
    return grid, np.array([_boxcox_loglik(values, logs, k) for k in grid])


def reference_kappa(values):
    """Fit oracle: `reference_kappa_grid`'s best exponent refined by the
    fit's golden-section search."""
    values = np.asarray(values, dtype=np.float64)
    logs = np.log(values)
    grid, lls = reference_kappa_grid(values)
    best = int(np.argmax(lls))
    a = grid[max(0, best - 1)]
    b = grid[min(len(grid) - 1, best + 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _boxcox_loglik(values, logs, c)
    fd = _boxcox_loglik(values, logs, d)
    while b - a > KAPPA_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _boxcox_loglik(values, logs, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _boxcox_loglik(values, logs, d)
    return (a + b) / 2


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
    data.validate()
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


def wavelet_pair_forward(params, decomp, t, layers):
    """Propagation oracle that applies the explicit, unthresholded pair.

    Each layer computes sigma(psi Phi diag(lam h) Phi^T psi^-1 z W) with
    psi and psi^-1 assembled as dense N x N matrices. Returns the
    concatenated (users, items) embeddings.
    """
    pair = build_wavelet_pair(decomp, ModelConfig(t=t), drop_threshold=0.0)
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


def reference_triples(train: InteractionSet, count: int, rng) -> np.ndarray:
    """Sampler oracle: `train.sample_triples` with its rejection loop
    re-testing every negative each round, exhausted users skipped with no
    warning."""
    degrees = train.user_degrees()
    pairs = train.pairs[~np.isin(train.pairs[:, 0], np.flatnonzero(degrees >= train.num_items))]
    encoded = pairs[:, 0] * train.num_items + pairs[:, 1]

    def is_positive(users, items):
        key = users * train.num_items + items
        idx = np.clip(np.searchsorted(encoded, key), 0, len(encoded) - 1)
        return encoded[idx] == key

    picks = rng.integers(0, len(pairs), count)
    out = np.empty((count, 3), dtype=np.int64)
    out[:, 0] = pairs[picks, 0]
    out[:, 1] = pairs[picks, 1]
    js = rng.integers(0, train.num_items, count)
    bad = is_positive(out[:, 0], js)
    while bad.any():
        js[bad] = rng.integers(0, train.num_items, int(bad.sum()))
        bad = is_positive(out[:, 0], js)
    out[:, 2] = js
    return out


def reference_topk(scores, seen, k):
    """Ranking oracle: each whole row sorted stably by descending score,
    its `seen` items set to -inf first; (ranked, lengths) as `topk`."""
    masked = np.where(seen, -np.inf, scores)
    order = np.argsort(-masked, axis=1, kind="stable")[:, :k]
    return order, np.minimum(k, seen.shape[1] - seen.sum(axis=1))


def make_trace(cu, ci):
    """A depth-0 trace whose concatenated user and item embeddings are
    `cu` and `ci`."""
    cu = np.asarray(cu, dtype=np.float64)
    ci = np.asarray(ci, dtype=np.float64)
    zs = np.vstack([cu, ci])[None]
    return ForwardTrace(zs=zs, coeffs=[], num_users=len(cu), grad=np.empty(zs.shape[1:]))


def concat_users(trace: ForwardTrace):
    """Every user's concatenated embedding, M x (L+1)P."""
    return trace.concat(np.arange(trace.num_users))


def score_pairs(trace: ForwardTrace, users: np.ndarray, items: np.ndarray):
    """Scores for aligned (user, item) index arrays."""
    return np.sum(concat_users(trace)[users] * trace.concat_items[items], axis=1)


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
    m = trace.num_users
    cu = concat_users(trace)
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
        h, coeff = oper.gate(params.theta[layer]), trace.coeffs[layer]
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


def reference_step(params, oper, layers, batch, adam, config):
    """Training-step oracle, as the step ran before it reused one
    workspace: `forward` into column blocks of one N x (L+1)P array, three
    fresh B x (L+1)P gathers for the margins, `bpr_loss`, `backward` with
    fresh N x P temporaries, and Adam with fresh temporaries. Updates
    `params` and `adam` in place; returns the batch loss."""

    def sigmoid1(x, out=None):
        pos = x >= 0
        e = np.abs(x)
        np.exp(np.negative(e, out=e), out=e)
        out = np.add(e, 1.0, out=out)
        return np.divide(np.maximum(e, pos, out=e), out, out=out)

    # forward
    m, p = params.x0.shape
    concat = np.empty((m + len(params.y0), (layers + 1) * p))
    zs = [concat[:, i * p: (i + 1) * p] for i in range(layers + 1)]
    np.concatenate([params.x0, params.y0], out=zs[0])
    caches = []
    for i in range(layers):
        h = sigmoid1(oper.g * params.theta[i])
        coeff = oper.phi.T @ zs[i]
        pre = oper.phi @ (((oper.lam * h)[:, None] * coeff) @ params.w[i])
        sigmoid1(pre, out=zs[i + 1])
        caches.append(types.SimpleNamespace(h=h, coeff=coeff))
    cu_all, ci_all = concat[:m], concat[m:]

    # margins and loss
    z = np.sum(cu_all[batch[:, 0]] * (ci_all[batch[:, 1]] - ci_all[batch[:, 2]]), axis=1)
    loss = float(np.logaddexp(0.0, -z).sum())
    if config.eta != 0.0:
        loss += 0.5 * config.eta * float(
            np.sum(cu_all[np.unique(batch[:, 0])] ** 2)
            + np.sum(ci_all[np.unique(batch[:, 1])] ** 2)
        )

    # backward
    eta = config.eta
    dz = -sigmoid1(-z)
    users, u_at = np.unique(batch[:, 0], return_inverse=True)
    items, i_at = np.unique(batch[:, 1:].T.ravel(), return_inverse=True)
    s = sp.csr_matrix((np.concatenate([dz, -dz]), (np.tile(u_at, 2), i_at)),
                      shape=(len(users), len(items)))
    cu = cu_all[users]
    ci = ci_all[items]
    d_rows = np.vstack([s @ ci, s.T @ cu])
    if eta != 0.0:
        d_rows[: len(users)] += eta * cu
        pos = np.unique(i_at[: len(batch)])
        d_rows[len(users) + pos] += eta * ci[pos]
    rows = np.concatenate([users, m + items])
    grad_w = [None] * layers
    grad_theta = [None] * layers
    d_next = np.zeros((len(concat), p))
    d_next[rows] = d_rows[:, layers * p:]
    for layer in range(layers - 1, -1, -1):
        h, coeff = caches[layer].h, caches[layer].coeff
        act = zs[layer + 1]
        d_next *= act
        d_next *= 1.0 - act
        e = oper.phi.T @ d_next
        d = (oper.lam * h)[:, None]
        grad_w[layer] = (d * coeff).T @ e
        d_scaled = e @ params.w[layer].T
        d_f = np.sum(d_scaled * coeff, axis=1)
        grad_theta[layer] = d_f * oper.lam * oper.g * h * (1.0 - h)
        d_next = oper.phi @ (d * d_scaled)
        d_next[rows] += d_rows[:, layer * p: (layer + 1) * p]
    grads = ModelParams(x0=d_next[:m], y0=d_next[m:], w=grad_w, theta=grad_theta)

    # Adam
    adam.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**adam.step
    c2 = 1.0 - b2**adam.step
    for (_, tensor), (_, g), (_, mom), (_, var) in zip(
        params.tensors(), grads.tensors(), adam.m.tensors(), adam.v.tensors(), strict=True
    ):
        mom *= b1
        mom += (1 - b1) * g
        var *= b2
        var += (1 - b2) * g * g
        tensor -= config.learning_rate * (mom / c1) / (np.sqrt(var / c2) + ADAM_EPS)
    return loss
