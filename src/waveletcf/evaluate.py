"""Top-k ranking metrics, cohort breakdowns, and the cold-start protocol.

All metrics are averaged over eligible test users (users holding at least
one held-out item). Ties in scores are broken by ascending item index, and
a user's training positives are masked out before ranking.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import DataError
from .ingest import InteractionSet, SplitSpec, split

DEFAULT_COHORT_BOUNDARIES = (25, 50, 100)


def topk(scores: np.ndarray, train_positives, k: int) -> np.ndarray:
    """Indices of the k best-scoring items, training positives excluded.

    Descending score; equal scores rank by ascending item index. Returns
    fewer than k indices only when the candidate pool is smaller than k.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    masked = np.asarray(scores, dtype=np.float64).copy()
    train_positives = np.asarray(list(train_positives), dtype=np.int64)
    masked[train_positives] = -np.inf
    pool = len(masked) - len(train_positives)
    order = np.argsort(-masked, kind="stable")
    return order[: min(k, pool)]


def recall_at_k(ranked: np.ndarray, test_items: set) -> float:
    """Fraction of held-out items appearing in the ranked list."""
    if not test_items:
        raise DataError("recall is undefined for an empty test set")
    hits = sum(1 for i in ranked if int(i) in test_items)
    return hits / len(test_items)


def ndcg_at_k(ranked: np.ndarray, test_items: set, k: int) -> float:
    """Binary-relevance NDCG: position-discounted hits over the ideal."""
    if not test_items:
        raise DataError("ndcg is undefined for an empty test set")
    dcg = sum(
        1.0 / math.log2(pos + 1)
        for pos, item in enumerate(ranked, start=1)
        if int(item) in test_items
    )
    ideal = sum(
        1.0 / math.log2(pos + 1)
        for pos in range(1, min(k, len(test_items)) + 1)
    )
    return dcg / ideal


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
    notes: Tuple[str, ...] = ()


def _cohort_labels(boundaries: Sequence[int]) -> List[str]:
    edges = [0] + list(boundaries) + [None]
    labels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        labels.append(f"[{lo},{hi})" if hi is not None else f"[{lo},inf)")
    return labels


def evaluate(
    score_fn: Callable[[int], np.ndarray],
    train: InteractionSet,
    test: InteractionSet,
    k_values: Sequence[int] = (20,),
    cohort_boundaries: Sequence[int] = DEFAULT_COHORT_BOUNDARIES,
    notes: Sequence[str] = (),
) -> MetricReport:
    """Score every eligible test user and aggregate ranking metrics.

    `score_fn(u)` must return the user's score for every item. Cohorts
    partition eligible users by their training interaction count at the
    given boundaries.
    """
    k_values = tuple(int(k) for k in k_values)
    if not k_values or min(k_values) < 1:
        raise DataError("k_values must be a non-empty list of positive cutoffs")
    train_items = train.items_by_user()
    test_items = test.items_by_user()
    eligible = np.array(
        [u for u in range(test.num_users) if len(test_items[u]) > 0],
        dtype=np.int64,
    )
    if len(eligible) == 0:
        raise DataError("no test users with held-out items")

    kmax = max(k_values)
    per_recall = {k: np.empty(len(eligible)) for k in k_values}
    per_ndcg = {k: np.empty(len(eligible)) for k in k_values}
    for row, u in enumerate(eligible):
        scores = score_fn(int(u))
        ranked = topk(scores, train_items[u], kmax)
        tset = set(map(int, test_items[u]))
        for k in k_values:
            head = ranked[:k]
            per_recall[k][row] = recall_at_k(head, tset)
            per_ndcg[k][row] = ndcg_at_k(head, tset, k)

    train_counts = train.user_degrees()[eligible]
    edges = [0] + list(cohort_boundaries) + [np.inf]
    labels = _cohort_labels(cohort_boundaries)
    cohorts = {}
    for k in k_values:
        rows = {}
        for lo, hi, label in zip(edges[:-1], edges[1:], labels):
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
        notes=tuple(notes),
    )


def render_report(report: MetricReport) -> str:
    """Aligned plain-text table followed by machine-readable lines."""
    out = []
    for note in report.notes:
        out.append(f"# {note}")
    out.append(f"eligible test users: {report.num_eligible}")
    header = f"{'k':>4}  {'recall':>10}  {'ndcg':>10}"
    out.append(header)
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


def cold_start_suite(
    data: InteractionSet,
    caps: Sequence[int],
    split_spec: SplitSpec,
    trainer: Callable[[InteractionSet, InteractionSet, int], Tuple[float, float]],
) -> List[Tuple[int, float, float]]:
    """Re-split with each training cap, retrain, and collect metrics.

    `trainer(train, test, cap)` runs a full training + evaluation cycle and
    returns (recall@20, ndcg@20). Rows come back in the order of `caps`.
    """
    if not caps or min(caps) < 1:
        raise DataError("caps must be positive integers")
    rows = []
    for cap in caps:
        train, test = split(data, replace(split_spec, per_user_cap=int(cap)))
        recall, ndcg = trainer(train, test, int(cap))
        rows.append((int(cap), float(recall), float(ndcg)))
    return rows


def render_cold_start(rows: List[Tuple[int, float, float]]) -> str:
    out = [f"{'cap':>4}  {'recall@20':>10}  {'ndcg@20':>10}"]
    for cap, r, n in rows:
        out.append(f"{cap:>4}  {r:>10.6f}  {n:>10.6f}")
    return "\n".join(out) + "\n"
