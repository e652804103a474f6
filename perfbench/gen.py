"""Seeded generator of raw interaction logs for the benchmark workloads.

The log has planted structure so that ranking quality carries real signal:
users and items belong to clusters, a user draws most of its items from
its own cluster, item popularity is Zipf-like, and user activity is
lognormal. Everything is vectorised; the same (shape, seed) always writes
the same bytes.

Where the values come from:

- DENSITY and MIN_ACTIVITY match MovieLens-1M as its README describes
  it: 1,000,209 ratings by 6,040 users of 3,706 rated movies, every user
  with at least 20 ratings. Like MovieLens-1M, the log holds no repeated
  (user, item) pair.
- ZIPF_EXPONENT, ACTIVITY_SIGMA, CLUSTERS and IN_CLUSTER are unverified
  picks: no published statistic or measurement backs them. They set the
  degree distribution of the graph, and with it the Laplacian spectrum,
  the eigensolver's matvec count and the cost of training.
"""

import numpy as np

DENSITY = 1_000_209 / (6040 * 3706)
MIN_ACTIVITY = 20
ZIPF_EXPONENT = 0.9
ACTIVITY_SIGMA = 0.6
CLUSTERS = 8
IN_CLUSTER = 0.8


def generate_log(path, users, items, seed):
    """Write a MovieLens-shaped TSV log (user, item, rating, timestamp).

    Each user rates a lognormal number of distinct items, at least
    MIN_ACTIVITY, drawn without replacement. Returns the number of rows.
    """
    rng = np.random.default_rng(seed)
    item_cluster = rng.integers(0, CLUSTERS, items)
    user_cluster = rng.integers(0, CLUSTERS, users)

    # Zipf-like weights over a random popularity order of the catalog
    weight = (rng.permutation(items) + 1.0) ** -ZIPF_EXPONENT
    cluster_mass = np.bincount(item_cluster, weights=weight, minlength=CLUSTERS)
    own = item_cluster[None, :] == user_cluster[:, None]
    # chance of each item on one draw: IN_CLUSTER from the user's own
    # cluster, the rest from the whole catalog, popularity-weighted in both
    prob = (1.0 - IN_CLUSTER) * weight / weight.sum() + np.where(
        own, IN_CLUSTER * weight / cluster_mass[user_cluster][:, None], 0.0)

    # lognormal activity, rescaled so every seed writes the same density
    # and only the structure of the log varies
    activity = rng.lognormal(0.0, ACTIVITY_SIGMA, users)
    activity *= DENSITY * items * users / activity.sum()
    activity = np.clip(np.rint(activity), MIN_ACTIVITY, items // 2).astype(np.int64)

    # Gumbel top-k: each user's first `activity` items in this order are
    # a weighted sample without replacement
    keys = np.log(prob) - np.log(-np.log(rng.random((users, items))))
    order = np.argsort(-keys, axis=1, kind="stable")
    taken = np.arange(items)[None, :] < activity[:, None]
    owner = np.nonzero(taken)[0]
    picked = order[taken]
    rows = len(owner)

    shuffle = rng.permutation(rows)
    ratings = rng.integers(1, 6, rows)
    stamps = 978300000 + np.sort(rng.integers(0, 10**7, rows))
    lines = [
        f"u{u}\ti{i}\t{r}\t{t}\n"
        for u, i, r, t in zip(
            owner[shuffle].tolist(), picked[shuffle].tolist(),
            ratings.tolist(), stamps.tolist(),
        )
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# user\titem\trating\ttimestamp\n")
        fh.writelines(lines)
    return rows
