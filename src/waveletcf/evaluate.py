"""Top-k ranking metrics, cohort breakdowns, and their text reports.

All metrics are averaged over eligible test users (users holding at least
one held-out item). Ties in scores are broken by ascending item index, and
a user's training positives are masked out before ranking.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import DataError
from .ingest import InteractionSet

# users scored and ranked per block. Ranking holds a few BLOCK_USERS x
# num_items arrays; at 256 users they raised the process's peak RSS by
# up to 5 MB on a 1510 x 927 run, at 64 not measurably
BLOCK_USERS = 64


def interactions(data: InteractionSet, users) -> np.ndarray:
    """Boolean (len(users), num_items) matrix; row r marks the items of user
    index users[r]."""
    owner = data.pairs[:, 0]
    starts = np.searchsorted(owner, users)
    counts = np.searchsorted(owner, users, side="right") - starts
    rows = np.repeat(np.arange(len(counts)), counts)
    # index of each marked pair in data.pairs: its user's first pair plus
    # its rank among that user's pairs
    first = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    mask = np.zeros((len(counts), data.num_items), dtype=bool)
    mask[rows, data.pairs[first + np.arange(len(rows)), 1]] = True
    return mask


def topk(scores: np.ndarray, seen: np.ndarray, k: int):
    """Rank a block of score rows, each row's `seen` items excluded.

    `scores` and `seen` are (B, K): one row of item scores and one row of
    training-positive flags per user. Descending score; equal scores rank
    by ascending item index. Returns (ranked, lengths): ranked is
    B x min(k, K) item indices, and row b is valid in its first
    lengths[b] = min(k, pool) entries, fewer than k only when the row's
    candidate pool is smaller than k.

    Only each row's candidates for its first min(k, K) places are sorted:
    the keys -score (+inf where seen) no greater than the row's k-th
    smallest, plus any NaN, which sorts last as in a full sort.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    width = min(k, seen.shape[1])
    neg = np.where(seen, np.inf, -scores)
    kth = np.partition(neg, width - 1, axis=1)[:, width - 1:width]
    rows, cols = np.nonzero(~(neg > kth))
    # cols ascend within each row and lexsort is stable, so equal keys
    # keep ascending item order
    order = np.lexsort((neg[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(len(neg)))
    ranked = cols[order][starts[:, None] + np.arange(width)]
    lengths = np.minimum(k, seen.shape[1] - seen.sum(axis=1))
    return ranked, lengths


@dataclass
class MetricReport:
    """Aggregate and per-user metrics for each requested cutoff."""

    k_values: Tuple[int, ...]
    num_eligible: int
    # k -> value
    recall: Dict[int, float]
    ndcg: Dict[int, float]
    # k -> per-eligible-user arrays (aligned with `eligible_users`)
    per_user_recall: Dict[int, np.ndarray]
    per_user_ndcg: Dict[int, np.ndarray]
    eligible_users: np.ndarray
    # k -> cohort label -> (recall, ndcg, count)
    cohorts: Dict[int, Dict[str, Tuple[float, float, int]]]


def evaluate(
    score_fn: Callable[[np.ndarray], np.ndarray],
    train: InteractionSet,
    test: InteractionSet,
    k_values: Sequence[int] = (20,),
    cohort_boundaries: Sequence[int] = (),
) -> MetricReport:
    """Score every eligible test user and aggregate ranking metrics.

    Eligible users are ranked BLOCK_USERS at a time: `score_fn(users)`
    gets an ascending int64 array of user indices and returns their item
    scores, anything that broadcasts to (len(users), num_items): the
    rows themselves, or one row shared by every user. Cohorts partition
    eligible users by their training interaction count at the given
    boundaries; with none, the one cohort [0,inf) holds them all.
    """
    k_values = tuple(int(k) for k in k_values)
    if not k_values or min(k_values) < 1:
        raise DataError("k_values must be a non-empty list of positive cutoffs")
    eligible = np.flatnonzero(test.user_degrees())
    if len(eligible) == 0:
        raise DataError("no test users with held-out items")

    kmax = max(k_values)
    # position discounts 1/log2(pos + 1) and the ideal DCG of n held-out
    # items at ideal[n - 1], summed left to right
    discount = np.array([1.0 / math.log2(pos + 1) for pos in range(1, kmax + 1)])
    ideal = np.cumsum(discount)
    per_recall = {k: np.empty(len(eligible)) for k in k_values}
    per_ndcg = {k: np.empty(len(eligible)) for k in k_values}
    for lo in range(0, len(eligible), BLOCK_USERS):
        users = eligible[lo: lo + BLOCK_USERS]
        hi = lo + len(users)
        scores = np.broadcast_to(score_fn(users), (len(users), train.num_items))
        ranked, lengths = topk(scores, interactions(train, users), kmax)
        held = interactions(test, users)
        width = ranked.shape[1]
        hits = np.take_along_axis(held, ranked, axis=1)
        hits &= np.arange(width) < lengths[:, None]
        found = np.cumsum(hits, axis=1)
        gain = np.cumsum(hits * discount[:width], axis=1)
        num_held = held.sum(axis=1)
        for k in k_values:
            col = min(k, width) - 1
            per_recall[k][lo:hi] = found[:, col] / num_held
            per_ndcg[k][lo:hi] = gain[:, col] / ideal[np.minimum(k, num_held) - 1]

    train_counts = train.user_degrees()[eligible]
    edges = [0] + list(cohort_boundaries) + [np.inf]
    cohorts = {}
    for k in k_values:
        rows = {}
        for lo, hi in zip(edges[:-1], edges[1:]):
            label = f"[{lo},{hi})"  # the last one reads [lo,inf)
            mask = (train_counts >= lo) & (train_counts < hi)
            count = int(mask.sum())
            if count:
                rows[label] = (
                    float(per_recall[k][mask].mean()),
                    float(per_ndcg[k][mask].mean()),
                    count,
                )
            else:
                rows[label] = (0.0, 0.0, 0)
        cohorts[k] = rows

    return MetricReport(
        k_values=k_values,
        num_eligible=len(eligible),
        recall={k: float(per_recall[k].mean()) for k in k_values},
        ndcg={k: float(per_ndcg[k].mean()) for k in k_values},
        per_user_recall=per_recall,
        per_user_ndcg=per_ndcg,
        eligible_users=eligible,
        cohorts=cohorts,
    )


def render_report(report: MetricReport) -> str:
    """Aligned plain-text table followed by machine-readable lines."""
    out = [f"eligible test users: {report.num_eligible}"]
    out.append(f"{'k':>4}  {'recall':>10}  {'ndcg':>10}")
    for k in report.k_values:
        out.append(f"{k:>4}  {report.recall[k]:>10.6f}  {report.ndcg[k]:>10.6f}")
    out.append("")
    out.append(f"{'k':>4}  {'cohort':>12}  {'recall':>10}  {'ndcg':>10}  {'users':>6}")
    for k in report.k_values:
        for label, (r, n, c) in report.cohorts[k].items():
            out.append(f"{k:>4}  {label:>12}  {r:>10.6f}  {n:>10.6f}  {c:>6}")
    out.append("")
    out.extend(machine_lines(report))
    return "\n".join(out) + "\n"


def machine_lines(report: MetricReport) -> List[str]:
    """Lines "metric k cohort value count" for downstream parsing."""
    lines = []
    for k in report.k_values:
        lines.append(f"recall {k} all {report.recall[k]:.10f} {report.num_eligible}")
        lines.append(f"ndcg {k} all {report.ndcg[k]:.10f} {report.num_eligible}")
        for label, (r, n, c) in report.cohorts[k].items():
            lines.append(f"recall {k} {label} {r:.10f} {c}")
            lines.append(f"ndcg {k} {label} {n:.10f} {c}")
    return lines


def popularity_scores(train: InteractionSet) -> np.ndarray:
    """Item training-interaction counts, usable as a baseline score row."""
    return train.item_degrees().astype(np.float64)


def render_cold_start(rows: List[Tuple[int, float, float]], k: int) -> str:
    """The cold-start table; `k` is the cutoff the rows were measured at."""
    out = [f"{'cap':>4}  {f'recall@{k}':>10}  {f'ndcg@{k}':>10}"]
    for cap, r, n in rows:
        out.append(f"{cap:>4}  {r:>10.6f}  {n:>10.6f}")
    return "\n".join(out) + "\n"
