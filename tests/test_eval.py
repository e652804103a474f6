"""Tests for ranking metrics, aggregation, cohorts, and the report tables."""

import math

import numpy as np
import pytest

from helpers import (
    expected_uniform_recall,
    interaction_set_from_pairs,
    reference_topk,
    synthetic_two_block,
)

from waveletcf.errors import DataError
from waveletcf.evaluate import (
    evaluate,
    interactions,
    machine_lines,
    popularity_scores,
    render_cold_start,
    render_report,
    topk,
)
from waveletcf.ingest import SplitSpec, split


# ---------------------------------------------------------------------- topk


def rank(scores, seen, k):
    """One row through the block ranking: ranked items, `seen` excluded."""
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.zeros((1, len(scores)), dtype=bool)
    mask[0, list(seen)] = True
    ranked, lengths = topk(scores[None, :], mask, k)
    return ranked[0, : lengths[0]]


def test_topk_tie_break_ascending():
    ranked = rank(np.zeros(10), [], 4)
    assert ranked.tolist() == [0, 1, 2, 3]


def test_topk_dominant_first():
    scores = np.array([0.1, 0.9, 0.2, 0.3])
    assert rank(scores, [], 2).tolist() == [1, 3]


def test_topk_masks_train_positives():
    scores = np.array([5.0, 4.0, 3.0, 2.0])
    ranked = rank(scores, [0, 2], 3)
    assert 0 not in ranked and 2 not in ranked
    assert ranked.tolist() == [1, 3]


def test_topk_pool_smaller_than_k():
    ranked = rank(np.arange(4.0), [1, 2], 10)
    assert len(ranked) == 2


def test_topk_ranks_each_row_of_a_block():
    scores = np.array([[1.0, 3.0, 2.0], [0.0, 0.0, 0.0], [2.0, 1.0, 3.0]])
    seen = np.array([[False, True, False], [False, False, False], [True, True, True]])
    ranked, lengths = topk(scores, seen, 2)
    assert ranked.shape == (3, 2)
    assert lengths.tolist() == [2, 2, 0]
    assert ranked[:2].tolist() == [[2, 0], [0, 1]]
    with pytest.raises(DataError):
        topk(scores, seen, 0)


def test_topk_matches_the_full_sort_oracle():
    # ties, NaN and +-inf scores, rows seen in full and k at or above K;
    # the tail past each row's length is compared too
    rng = np.random.default_rng(5)
    for trial in range(400):
        b, n, k = rng.integers(1, 9), rng.integers(1, 30), int(rng.integers(1, 40))
        if trial % 2:
            scores = rng.integers(-2, 3, (b, n)).astype(np.float64)
        else:
            scores = rng.standard_normal((b, n))
        special = rng.integers(0, 20, (b, n))
        scores[special == 0] = np.nan
        scores[special == 1] = np.inf
        scores[special == 2] = -np.inf
        scores[special == 3] = -0.0
        seen = rng.random((b, n)) < rng.random()
        seen[0] |= trial % 7 == 0
        ranked, lengths = topk(scores, seen, k)
        expected, expected_lengths = reference_topk(scores, seen, k)
        assert ranked.dtype == expected.dtype
        np.testing.assert_array_equal(ranked, expected)
        np.testing.assert_array_equal(lengths, expected_lengths)


def test_interaction_rows_follow_the_asked_users():
    data = interaction_set_from_pairs(4, 3, [(0, 0), (1, 2), (3, 0), (3, 1)])
    mask = interactions(data, [3, 2, 1, 3])
    assert mask.tolist() == [
        [True, True, False],
        [False, False, False],
        [False, False, True],
        [True, True, False],
    ]


# ------------------------------------------------------------------- metrics


def one_user(ranked, held):
    """Recall@k and NDCG@k, k = len(ranked), of one user whose top k items
    are `ranked`, in order, against held-out items `held`."""
    n = max([*ranked, *held]) + 1
    scores = np.zeros(n)
    scores[list(ranked)] = np.arange(len(ranked), 0, -1)
    train = interaction_set_from_pairs(1, n, [])
    test = interaction_set_from_pairs(1, n, [(0, i) for i in held])
    k = len(ranked)
    rep = evaluate(lambda users: scores, train, test, k_values=(k,))
    return rep.recall[k], rep.ndcg[k]


def test_recall_values():
    assert one_user([1, 2, 3], {1, 2, 3})[0] == 1.0
    assert one_user([1, 2, 3], {7, 8})[0] == 0.0
    assert one_user([1, 2, 3], {1, 7, 8, 9})[0] == 0.25
    with pytest.raises(DataError):
        one_user([1], set())


def test_ndcg_perfect_and_empty():
    assert one_user([4, 5], {4, 5})[1] == pytest.approx(1.0)
    assert one_user([1, 2, 3], {9})[1] == 0.0


def test_ndcg_worked_example():
    # hits at ranks 1 and 3 with two held-out items, k=3
    value = one_user([10, 11, 12], {10, 12})[1]
    exact = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert value == pytest.approx(exact, abs=1e-12)
    assert value == pytest.approx(0.9197, abs=1e-4)


def test_ndcg_permutation_below_last_hit():
    base = one_user([3, 7, 1, 2, 9], {3, 1})[1]
    swap = one_user([3, 7, 1, 9, 2], {3, 1})[1]
    assert base == pytest.approx(swap, abs=1e-15)


def test_metrics_nondecreasing_in_k():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=30)
    held = rng.choice(30, 6, replace=False).tolist()
    train = interaction_set_from_pairs(1, 30, [])
    test = interaction_set_from_pairs(1, 30, [(0, i) for i in held])
    k_values = (1, 3, 5, 10, 20, 30)
    rep = evaluate(lambda users: scores, train, test, k_values=k_values)
    prev_r, prev_n = 0.0, 0.0
    for k in k_values:
        r, n = rep.recall[k], rep.ndcg[k]
        assert r >= prev_r - 1e-15
        assert n >= prev_n - 1e-15
        prev_r, prev_n = r, n


# ------------------------------------------------------------------ evaluate


def split_fixture(seed=0, users=200, items=50):
    data = synthetic_two_block(
        num_users=users, num_items=items, per_user=items // 2 + 2, noise=0.1, seed=seed
    )
    return split(data, SplitSpec(train_fraction=0.8, seed=seed))


def test_random_scores_match_uniform_expectation():
    train, test = split_fixture()
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(train.num_users, train.num_items))
    report = evaluate(lambda u: rows[u], train, test, k_values=(20,))
    expected = expected_uniform_recall(train, test, 20)
    per_user = report.per_user_recall[20]
    se = per_user.std(ddof=1) / math.sqrt(len(per_user))
    assert abs(report.recall[20] - expected) <= 3 * se + 1e-9


def test_cohort_counts_partition_eligible_users():
    train, test = split_fixture(seed=1)
    rows = np.random.default_rng(3).normal(size=(train.num_users, train.num_items))
    report = evaluate(
        lambda u: rows[u], train, test, k_values=(10, 20), cohort_boundaries=(10, 20, 30)
    )
    for k in (10, 20):
        assert sum(c for _, _, c in report.cohorts[k].values()) == report.num_eligible
    assert 0.0 <= report.recall[20] <= 1.0
    assert 0.0 <= report.ndcg[20] <= 1.0
    # without boundaries, one cohort holds every eligible user
    report = evaluate(lambda u: rows[u], train, test, k_values=(20,))
    assert report.cohorts == {
        20: {"[0,inf)": (report.recall[20], report.ndcg[20], report.num_eligible)}
    }


def test_full_catalog_cutoff_gives_perfect_recall():
    train, test = split_fixture(seed=2, users=40, items=30)
    rows = np.random.default_rng(4).normal(size=(40, 30))
    report = evaluate(lambda u: rows[u], train, test, k_values=(30,))
    assert (report.per_user_recall[30] == 1.0).all()


def test_users_without_test_items_excluded():
    train = interaction_set_from_pairs(3, 4, [(0, 0), (1, 1), (2, 2), (2, 3)])
    test = interaction_set_from_pairs(3, 4, [(0, 1), (1, 2)])
    rows = np.eye(3, 4)
    report = evaluate(lambda u: rows[u], train, test, k_values=(2,))
    assert report.num_eligible == 2
    assert set(report.eligible_users.tolist()) == {0, 1}


def test_no_eligible_users_errors():
    train = interaction_set_from_pairs(2, 2, [(0, 0), (1, 1)])
    test = interaction_set_from_pairs(2, 2, [])
    with pytest.raises(DataError):
        evaluate(lambda u: np.zeros(2), train, test, k_values=(1,))


def test_evaluation_is_pure():
    train, test = split_fixture(seed=5, users=30, items=20)
    rows = np.random.default_rng(6).normal(size=(30, 20))
    a = evaluate(lambda u: rows[u], train, test, k_values=(5,))
    b = evaluate(lambda u: rows[u], train, test, k_values=(5,))
    assert a.recall == b.recall and a.ndcg == b.ndcg
    assert np.array_equal(a.per_user_ndcg[5], b.per_user_ndcg[5])


# ----------------------------------------------------------------- rendering


def report_fixture():
    train, test = split_fixture(seed=7, users=30, items=20)
    rows = np.random.default_rng(8).normal(size=(30, 20))
    return evaluate(lambda u: rows[u], train, test, k_values=(5, 10))


def test_machine_lines_format():
    report = report_fixture()
    lines = machine_lines(report)
    assert f"recall 5 all {report.recall[5]:.10f} {report.num_eligible}" in lines
    for line in lines:
        metric, k, cohort, value, count = line.split()
        assert metric in ("recall", "ndcg")
        int(k), float(value), int(count)


def test_render_report():
    report = report_fixture()
    text = render_report(report)
    assert text.startswith("eligible test users: ")


# ---------------------------------------------------------------- cold start


def test_cold_start_single_cap_row_and_render():
    rows = [(3, 0.5, 0.25)]
    text = render_cold_start(rows, 20)
    assert text.splitlines() == [
        " cap   recall@20     ndcg@20",
        "   3    0.500000    0.250000",
    ]
    assert render_cold_start(rows, 10).split()[:3] == ["cap", "recall@10", "ndcg@10"]
