"""Acceptance suite: one test per shipped guarantee.

Each test measures the guarantee end to end against an independent oracle
(dense eigensolvers, brute-force search, finite differences, analytic
expectations) and prints one summary line with the measured numbers; run
with -v for per-guarantee pass/fail lines, add -s for the numbers.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    cluster_projector_error,
    dense_eigh,
    expected_uniform_recall,
    interaction_set_from_pairs,
    laplacian_for,
    make_trace,
    random_bipartite,
    synthetic_two_block,
)

from waveletcf import evaluate as evaluate_mod, seeds
from waveletcf.evaluate import (
    evaluate,
    interactions,
    popularity_scores,
    topk,
)
from waveletcf.ingest import SplitSpec, split
from waveletcf.model import (
    ModelConfig,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    score_user,
)
from waveletcf.spectral import (
    boxcox_fit,
    boxcox_transform,
    build_wavelet_pair,
    default_q,
    eigensolve,
)
from waveletcf.train import BatchRows, TrainConfig, backward, bpr_loss, fit

pytestmark = pytest.mark.filterwarnings("ignore:embedding width")

ROOT_SEED = 0


def report(name, ok, detail):
    print(f"acceptance [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# 1 ------------------------------------------------------------------------


def test_eigensolver_matches_dense_oracle():
    t0 = time.time()
    worst_val = worst_proj = 0.0
    for seed in range(25):
        data = random_bipartite(seed=1000 + seed, max_nodes=200)
        lap = laplacian_for(data)
        dec = eigensolve(lap, q=lap.n, seed=seed)
        oracle_vals, oracle_vecs = dense_eigh(lap)
        worst_val = max(worst_val, np.abs(dec.lambdas - oracle_vals).max())
        worst_proj = max(
            worst_proj, cluster_projector_error(oracle_vals, dec.phi, oracle_vecs)
        )
    elapsed = time.time() - t0
    report(
        "eigensolver vs dense oracle",
        worst_val <= 1e-8 and worst_proj <= 1e-6 and elapsed < 30.0,
        f"25 graphs, full spectrum: eigenvalue err {worst_val:.2e} <= 1e-8, "
        f"projector err {worst_proj:.2e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


# 2 ------------------------------------------------------------------------


def test_bipartite_spectrum_endpoints():
    worst_min, worst_max = 0.0, 0.0
    cases = [random_bipartite(seed=2000 + s, max_nodes=160) for s in range(10)]
    cases.append(
        interaction_set_from_pairs(2, 3, [(u, i) for u in range(2) for i in range(3)])
    )
    for data in cases:
        lap = laplacian_for(data)
        dec = eigensolve(lap, q=lap.n)
        worst_min = max(worst_min, abs(dec.lambdas[0]))
        worst_max = max(worst_max, abs(dec.lambdas[-1] - 2.0))
    report(
        "two-sided spectrum endpoints",
        worst_min <= 1e-8 and worst_max <= 1e-6,
        f"11 connected graphs: min eigenvalue {worst_min:.2e} <= 1e-8, "
        f"|max - 2| {worst_max:.2e} <= 1e-6",
    )


# 3 ------------------------------------------------------------------------


def brute_kappa(values, step=1e-5, bounds=(-5.0, 5.0)):
    values = np.asarray(values, dtype=np.float64)
    logs = np.log(values).sum()
    best_k, best_ll = None, -np.inf
    grid = np.arange(bounds[0], bounds[1] + step / 2, step)
    for lo in range(0, len(grid), 200_000):
        ks = grid[lo: lo + 200_000]
        with np.errstate(divide="ignore"):
            y = np.where(
                ks[:, None] == 0,
                np.log(values)[None, :],
                (values[None, :] ** ks[:, None] - 1.0) / ks[:, None],
            )
        var = y.var(axis=1)
        ll = -0.5 * len(values) * np.log(var) + (ks - 1.0) * logs
        i = int(np.argmax(ll))
        if ll[i] > best_ll:
            best_ll, best_k = float(ll[i]), float(ks[i])
    return best_k


def test_power_transform_fit_matches_grid_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(20, 80))
        sample = rng.uniform(0.05, 2.05, n)
        fitted = boxcox_fit(sample).kappa
        oracle = brute_kappa(sample)
        worst = max(worst, abs(fitted - oracle))

    x = rng.uniform(0.1, 3.0, 50)
    identity_err = np.abs(boxcox_transform(x, 1.0) - (x - 1.0)).max()
    log_err = np.abs(boxcox_transform(x, 0.0) - np.log(x)).max()
    report(
        "power-transform maximum likelihood",
        worst <= 1e-3 and identity_err == 0.0 and log_err == 0.0,
        f"10 samples: |fit - grid(step 1e-5)| {worst:.2e} <= 1e-3, "
        f"exponent-1 branch err {identity_err:.1e}, log branch err {log_err:.1e}",
    )


# 4 ------------------------------------------------------------------------


def test_wavelet_pair_inverse_and_sparsification():
    data = random_bipartite(seed=43, max_nodes=80)
    lap = laplacian_for(data)

    full = eigensolve(lap, q=lap.n)
    pair = build_wavelet_pair(full, ModelConfig(t=0.5), drop_threshold=0.0)
    identity_err = np.abs(
        pair.psi.toarray() @ pair.psi_inv.toarray() - np.eye(lap.n)
    ).max()

    q = lap.n // 2
    trunc = eigensolve(lap, q=q)
    tpair = build_wavelet_pair(trunc, ModelConfig(t=0.5), drop_threshold=0.0)
    projector = trunc.phi @ trunc.phi.T
    projector_err = np.abs(
        tpair.psi.toarray() @ tpair.psi_inv.toarray() - projector
    ).max()

    dropped = build_wavelet_pair(full, ModelConfig(t=0.5), drop_threshold=1e-7)
    sparse_err = max(
        np.abs(pair.psi.toarray() - dropped.psi.toarray()).max(),
        np.abs(pair.psi_inv.toarray() - dropped.psi_inv.toarray()).max(),
    )
    report(
        "wavelet operator pair",
        identity_err <= 1e-5 and projector_err <= 1e-5 and sparse_err <= 1e-7,
        f"full-spectrum product vs identity {identity_err:.2e} <= 1e-5, "
        f"truncated product vs projector {projector_err:.2e} <= 1e-5, "
        f"1e-7 sparsification delta {sparse_err:.2e} <= 1e-7",
    )


# 5 ------------------------------------------------------------------------


def _finite_difference_worst():
    data = random_bipartite(seed=41, max_nodes=24)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=lap.n)
    oper = PropagationOperator(dec, ModelConfig(t=0.7))
    cfg = ModelConfig(layers=3, width=4, t=0.7, seed=19)
    params = init_params(cfg, data.num_users, data.num_items, q=dec.q)
    rng = np.random.default_rng(23)
    for th in params.theta:
        th += rng.normal(0, 0.5, th.shape)
    m, k = data.num_users, data.num_items
    batch = np.column_stack(
        [rng.integers(0, m, 30), rng.integers(0, k, 30), rng.integers(0, k, 30)]
    )
    eta = 0.3
    trace = forward(params, oper)
    grads = dict(backward(trace, BatchRows(trace, batch), params, oper, eta).tensors())
    h = 1e-4
    worst = 0.0
    for name, tensor in params.tensors():
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            trace = forward(params, oper)
            up = bpr_loss(trace, BatchRows(trace, batch), eta)
            tensor[idx] = orig - h
            trace = forward(params, oper)
            down = bpr_loss(trace, BatchRows(trace, batch), eta)
            tensor[idx] = orig
            fd[idx] = (up - down) / (2 * h)
            it.iternext()
        scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
        worst = max(worst, np.abs(fd - grads[name]).max() / scale)
    return worst


def test_gradients_match_finite_differences():
    worst = _finite_difference_worst()

    # with no propagation layers the loss gradient has a closed form
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(5, 4))
    params = ModelParams(x0=x.copy(), y0=y.copy(), w=[], theta=[])
    trace = make_trace(x, y)
    toy = interaction_set_from_pairs(1, 1, [(0, 0)])
    toy_dec = eigensolve(laplacian_for(toy), q=2)
    toy_oper = PropagationOperator(toy_dec, ModelConfig(t=0.0))
    eta, (u, i, j) = 0.21, (1, 2, 4)
    rows = BatchRows(trace, np.array([[u, i, j]]))
    grads = backward(trace, rows, params, toy_oper, eta)
    s = 1.0 / (1.0 + math.exp(-float(x[u] @ (y[i] - y[j]))))
    closed = max(
        np.abs(grads.x0[u] - (-(1 - s) * (y[i] - y[j]) + eta * x[u])).max(),
        np.abs(grads.y0[i] - (-(1 - s) * x[u] + eta * y[i])).max(),
        np.abs(grads.y0[j] - ((1 - s) * x[u])).max(),
    )
    report(
        "reverse-mode gradients",
        worst <= 1e-4 and closed <= 1e-12,
        f"central differences, every tensor: {worst:.2e} <= 1e-4; "
        f"depth-0 closed form {closed:.2e} <= 1e-12",
    )


# 6 ------------------------------------------------------------------------


def _brute_topk(scores, banned, k):
    order = sorted(
        (i for i in range(len(scores)) if i not in banned),
        key=lambda i: (-scores[i], i),
    )
    return order[:k]


def _brute_recall(ranked, test_items):
    return len(set(ranked) & test_items) / len(test_items)


def _brute_ndcg(ranked, test_items, k):
    dcg = sum(
        1.0 / math.log2(pos + 1)
        for pos, item in enumerate(ranked, start=1)
        if item in test_items
    )
    ideal = sum(
        1.0 / math.log2(pos + 1)
        for pos in range(1, min(k, len(test_items)) + 1)
    )
    return dcg / ideal


def _one_user_metrics(scores, banned, test_items, k):
    """Ranked list, Recall@k and NDCG@k of one user through `topk` and
    `evaluate`."""
    n = len(scores)
    train = interaction_set_from_pairs(1, n, [(0, i) for i in banned])
    test = interaction_set_from_pairs(1, n, [(0, i) for i in test_items])
    ranked, lengths = topk(scores[None, :], interactions(train, [0]), k)
    rep = evaluate(lambda users: scores, train, test, k_values=(k,))
    return (
        ranked[0, : lengths[0]].tolist(),
        rep.per_user_recall[k][0],
        rep.per_user_ndcg[k][0],
    )


def test_ranking_metrics_match_brute_force():
    rng = np.random.default_rng(61)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(5, 60))
        # integer scores half the time to force ties through the tie-break
        if case % 2:
            scores = rng.integers(0, 4, n).astype(np.float64)
        else:
            scores = rng.normal(size=n)
        banned = set(
            rng.choice(n, int(rng.integers(0, n // 3 + 1)), replace=False).tolist()
        )
        candidates = [i for i in range(n) if i not in banned]
        test_items = set(
            rng.choice(
                candidates, int(rng.integers(1, len(candidates) + 1)), replace=False
            ).tolist()
        )
        k = int(rng.integers(1, n + 2))
        ranked, recall, ndcg = _one_user_metrics(scores, banned, test_items, k)
        expected = _brute_topk(scores, banned, k)
        assert ranked == expected, f"case {case}: top-k order differs"
        worst = max(
            worst,
            abs(recall - _brute_recall(expected, test_items)),
            abs(ndcg - _brute_ndcg(expected, test_items, k)),
        )

    worked_scores = np.zeros(24)
    worked_scores[[21, 22, 23]] = [3.0, 2.0, 1.0]
    worked = _one_user_metrics(worked_scores, set(), {21, 23}, 3)[2]
    worked_target = 1.5 / 1.63093
    report(
        "ranking metrics vs brute force",
        worst <= 1e-12 and abs(worked - worked_target) <= 1e-4,
        f"1000 random instances: max |delta| {worst:.2e} <= 1e-12; "
        f"worked example {worked:.6f} vs {worked_target:.6f} within 1e-4",
    )


def test_evaluate_matches_brute_force(monkeypatch):
    # tie-heavy integer scores over 600 users: 1 in 5 has no held-out items,
    # most have fewer candidates than the largest cutoff, and the block
    # size is the module's own (several blocks) or 7 (many, a ragged last)
    rng = np.random.default_rng(67)
    num_users, num_items = 600, 30
    k_values = (1, 5, 20, 40)
    train_pairs, test_pairs = [], []
    for u in range(num_users):
        items = rng.permutation(num_items)
        cut = int(rng.integers(0, num_items))
        held = 0 if u % 5 == 0 else int(rng.integers(1, num_items - cut + 1))
        train_pairs += [(u, int(i)) for i in items[:cut]]
        test_pairs += [(u, int(i)) for i in items[cut: cut + held]]
    train = interaction_set_from_pairs(num_users, num_items, train_pairs)
    test = interaction_set_from_pairs(num_users, num_items, test_pairs)
    banned = [set(items.tolist()) for items in train.items_by_user()]
    held = [set(items.tolist()) for items in test.items_by_user()]
    eligible = [u for u in range(num_users) if held[u]]
    rows = rng.integers(0, 4, (num_users, num_items)).astype(np.float64)
    shared = rng.integers(0, 3, num_items).astype(np.float64)

    recall_delta = ndcg_delta = 0.0
    cases = 0
    for block in (evaluate_mod.BLOCK_USERS, 7):
        monkeypatch.setattr(evaluate_mod, "BLOCK_USERS", block)
        for score_fn, row_of in (
            (lambda users: rows[users], lambda u: rows[u]),
            (lambda users: shared, lambda u: shared),
        ):
            rep = evaluate(score_fn, train, test, k_values=k_values)
            assert rep.eligible_users.tolist() == eligible
            for k in k_values:
                ranked = [_brute_topk(row_of(u), banned[u], k) for u in eligible]
                recall = np.array(
                    [_brute_recall(r, held[u]) for r, u in zip(ranked, eligible)]
                )
                ndcg = np.array(
                    [_brute_ndcg(r, held[u], k) for r, u in zip(ranked, eligible)]
                )
                recall_delta = max(
                    recall_delta, np.abs(rep.per_user_recall[k] - recall).max()
                )
                ndcg_delta = max(
                    ndcg_delta, np.abs(rep.per_user_ndcg[k] - ndcg).max()
                )
                recall_delta = max(recall_delta, abs(rep.recall[k] - recall.mean()))
                ndcg_delta = max(ndcg_delta, abs(rep.ndcg[k] - ndcg.mean()))
                cases += 1
    short = sum(1 for u in eligible if num_items - len(banned[u]) < 20)
    report(
        "evaluate vs brute force",
        recall_delta == 0.0 and ndcg_delta <= 1e-12,
        f"{cases} (block, scorer, k) cases over {len(eligible)} eligible users, "
        f"{short} with a pool below k=20: recall |delta| "
        f"{recall_delta:.1e} == 0, ndcg |delta| {ndcg_delta:.2e} <= 1e-12",
    )


# 7 ------------------------------------------------------------------------


def _train_synthetic(train_set, model_cfg, train_cfg):
    lap = laplacian_for(train_set)
    dec = eigensolve(
        lap,
        min(default_q(lap.n), lap.n),
        seed=seeds.child_seed(ROOT_SEED, seeds.EIG),
    )
    result = fit(train_set, dec, model_cfg, train_cfg)
    oper = PropagationOperator(dec, model_cfg)
    trace = forward(result.best_params, oper)
    return trace


def test_synthetic_learning_beats_baselines():
    t0 = time.time()
    data = synthetic_two_block(
        num_users=300, num_items=200, per_user=105, noise=0.05, seed=7
    )
    train_set, test_set = split(
        data, SplitSpec(0.8, seed=seeds.child_seed(ROOT_SEED, seeds.SPLIT))
    )

    pop = popularity_scores(train_set)
    pop_recall = evaluate(lambda u: pop, train_set, test_set, k_values=(20,)).recall[20]
    uniform = expected_uniform_recall(train_set, test_set, 20)

    model_cfg = ModelConfig(
        layers=3, width=64, t=0.5,
        seed=seeds.child_seed(ROOT_SEED, seeds.INIT),
    )
    train_cfg = TrainConfig(
        learning_rate=0.05, eta=1.0, max_epochs=40, patience=10, seed=ROOT_SEED
    )
    trace = _train_synthetic(train_set, model_cfg, train_cfg)
    recall = evaluate(
        lambda u: score_user(trace, u), train_set, test_set, k_values=(20,)
    ).recall[20]
    elapsed = time.time() - t0
    report(
        "end-to-end learning signal",
        recall >= 3 * pop_recall and recall >= 5 * uniform and elapsed < 300.0,
        f"synthetic two-block: recall@20 {recall:.4f} >= 3x popularity "
        f"{3 * pop_recall:.4f} and >= 5x uniform {5 * uniform:.4f}, "
        f"{elapsed:.0f}s < 300s",
    )


# 8 ------------------------------------------------------------------------


def test_cold_start_metrics_trend_with_cap():
    data = synthetic_two_block(
        num_users=300, num_items=200, per_user=105, noise=0.05, seed=7
    )
    model_cfg = ModelConfig(
        layers=3, width=64, t=0.5,
        seed=seeds.child_seed(ROOT_SEED, seeds.INIT),
    )
    train_cfg = TrainConfig(
        learning_rate=0.02, eta=0.1, max_epochs=80, patience=20, seed=ROOT_SEED
    )

    split_seed = seeds.child_seed(ROOT_SEED, seeds.SPLIT)
    recalls, ndcgs = [], []
    for cap in [3, 5, 7, 9, 12]:
        train_set, test_set = split(
            data, SplitSpec(0.8, seed=split_seed, per_user_cap=cap)
        )
        trace = _train_synthetic(train_set, model_cfg, train_cfg)
        rep = evaluate(
            lambda u: score_user(trace, u), train_set, test_set, k_values=(20,)
        )
        recalls.append(rep.recall[20])
        ndcgs.append(rep.ndcg[20])
    inv_recall = sum(1 for a, b in zip(recalls, recalls[1:]) if b < a)
    inv_ndcg = sum(1 for a, b in zip(ndcgs, ndcgs[1:]) if b < a)
    report(
        "cold-start trend over caps",
        inv_recall <= 1 and inv_ndcg <= 1,
        f"caps 3/5/7/9/12 recall@20 {[round(r, 4) for r in recalls]}: "
        f"{inv_recall} recall and {inv_ndcg} ndcg inversions (<= 1 each)",
    )


# 9 ------------------------------------------------------------------------


def test_pipeline_bitwise_reproducible(tmp_path):
    data = synthetic_two_block(
        num_users=60, num_items=40, per_user=21, noise=0.05, seed=7
    )
    raw_lines = "".join(f"u{u}\ti{i}\n" for u, i in data.pairs)
    config = (
        "input=raw.tsv\ndataset=data.ds\nspectral_cache=spec.bundle\n"
        "checkpoint=model.ckpt\nreport=report.txt\nseed=11\nthreads=1\n"
        "max_epochs=4\npatience=3\nwidth=16\nk_values=5,20\n"
    )
    # the runs use cwd=rundir, so a relative PYTHONPATH entry would not resolve
    src = str(Path(__file__).resolve().parent.parent / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    artifacts = []
    for run in ("a", "b"):
        rundir = tmp_path / run
        rundir.mkdir()
        (rundir / "raw.tsv").write_text(raw_lines)
        (rundir / "run.cfg").write_text(config)
        for command in ("ingest", "spectral", "train", "evaluate"):
            proc = subprocess.run(
                [sys.executable, "-m", "waveletcf", command, "--config", "run.cfg"],
                cwd=rundir,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{command} failed: {proc.stderr}"
        artifacts.append(
            {
                name: (rundir / name).read_bytes()
                for name in ("data.ds", "spec.bundle", "model.ckpt", "report.txt")
            }
        )
    mismatched = [
        name for name in artifacts[0] if artifacts[0][name] != artifacts[1][name]
    ]
    report(
        "bitwise reproducibility",
        not mismatched,
        "two single-threaded pipeline runs, same root seed: dataset, "
        "spectral cache, checkpoint, and report all byte-identical"
        + (f"; MISMATCH in {mismatched}" if mismatched else ""),
    )


# optional long-running benchmark ------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("ML1M_RATINGS"),
    reason="set ML1M_RATINGS to a MovieLens-1M ratings file to run the "
    "hour-scale benchmark",
)
def test_movielens_beats_popularity(tmp_path):
    """Full-scale sanity run: the model must beat the popularity baseline.

    No fixed numeric target; published full-training numbers are not
    reproducible in a short run, but even light training has to clear the
    non-personalized baseline on both metrics.
    """
    from waveletcf.ingest import filter_by_activity, load_interactions

    path = os.environ["ML1M_RATINGS"]
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        head = fh.readline()
    if "::" in head:
        converted = tmp_path / "ratings.tsv"
        with open(path, "r", encoding="utf-8", errors="replace") as src:
            with open(converted, "w", encoding="utf-8") as dst:
                for line in src:
                    dst.write(line.replace("::", "\t"))
        path = str(converted)

    raw = load_interactions(path)
    data = filter_by_activity(raw, min_user=5, min_item=5)
    train_set, test_set = split(
        data, SplitSpec(0.8, seed=seeds.child_seed(ROOT_SEED, seeds.SPLIT))
    )

    pop = popularity_scores(train_set)
    pop_report = evaluate(lambda u: pop, train_set, test_set, k_values=(20,))

    model_cfg = ModelConfig(
        layers=3, width=64, t=0.5,
        seed=seeds.child_seed(ROOT_SEED, seeds.INIT),
    )
    train_cfg = TrainConfig(
        learning_rate=0.05, eta=0.1, max_epochs=10, patience=2, seed=ROOT_SEED
    )
    trace = _train_synthetic(train_set, model_cfg, train_cfg)
    model_report = evaluate(
        lambda u: score_user(trace, u), train_set, test_set, k_values=(20,)
    )
    report(
        "full-scale benchmark",
        model_report.recall[20] > pop_report.recall[20]
        and model_report.ndcg[20] > pop_report.ndcg[20],
        f"{data.num_users} users, {data.num_items} items: model "
        f"recall@20 {model_report.recall[20]:.4f} / ndcg@20 "
        f"{model_report.ndcg[20]:.4f} vs popularity "
        f"{pop_report.recall[20]:.4f} / {pop_report.ndcg[20]:.4f}",
    )
