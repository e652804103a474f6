"""Tests for triple sampling, loss, gradients, Adam, and the fit loop."""

import math
import types
import warnings

import numpy as np
import pytest

from helpers import (
    interaction_set_from_pairs,
    laplacian_for,
    random_bipartite,
    reference_backward,
    synthetic_two_block,
)

from waveletcf import train as train_mod
from waveletcf.errors import ConfigError, DataError, NumericalError
from waveletcf.evaluate import evaluate, popularity_scores
from waveletcf.ingest import SplitSpec, split
from waveletcf.model import (
    ForwardTrace,
    ModelConfig,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    score_user,
)
from waveletcf.spectral import boxcox_fit, eigensolve
from waveletcf.train import (
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    bpr_loss,
    fit,
    grid_search,
    sample_triples,
)

pytestmark = pytest.mark.filterwarnings("ignore:embedding width")


def test_train_config_validation():
    with pytest.raises(ConfigError, match="zero rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=-1)
    with pytest.raises(ConfigError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ConfigError, match="batch_size must be int, got True"):
        TrainConfig(batch_size=True)
    with pytest.raises(ConfigError, match="eta must be float, got '0.1'"):
        TrainConfig(eta="0.1")
    assert TrainConfig(eta=0).eta == 0  # an int is a valid float


# ------------------------------------------------------------------ sampling


def test_forced_negative():
    train = interaction_set_from_pairs(2, 2, [(0, 0), (1, 1)])
    rng = np.random.default_rng(0)
    triples = sample_triples(train, 50, rng)
    for u, i, j in triples:
        assert (j == 1) if u == 0 else (j == 0)


def test_negatives_never_positive_and_uniform():
    rng = np.random.default_rng(1)
    # one user holding half of a 200-item catalog
    pairs = [(0, int(i)) for i in rng.choice(200, 100, replace=False)]
    train = interaction_set_from_pairs(1, 200, pairs)
    positives = set(train.pairs[:, 1].tolist())

    draws = np.random.default_rng(2).integers(0, 200, 1_000_000)
    accept = np.mean([d not in positives for d in draws])
    assert abs(accept - 0.5) <= 0.01  # binomial bound on the 50% density

    triples = sample_triples(train, 200_000, np.random.default_rng(3))
    assert not any(int(j) in positives for j in triples[:, 2])
    counts = np.bincount(triples[:, 2], minlength=200)
    negatives = np.array(sorted(set(range(200)) - positives))
    expected = 200_000 / 100
    assert np.abs(counts[negatives] - expected).max() <= 5 * math.sqrt(expected)


def test_sampling_deterministic():
    train = interaction_set_from_pairs(3, 5, [(0, 0), (0, 1), (1, 2), (2, 3)])
    a = sample_triples(train, 100, np.random.default_rng(7))
    b = sample_triples(train, 100, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_exhausted_user_skipped_with_warning():
    pairs = [(0, i) for i in range(4)] + [(1, 0), (1, 1)]
    train = interaction_set_from_pairs(2, 4, pairs)
    with pytest.warns(UserWarning, match="every item"):
        triples = sample_triples(train, 80, np.random.default_rng(5))
    assert (triples[:, 0] == 1).all()


def test_all_users_exhausted_errors():
    train = interaction_set_from_pairs(1, 2, [(0, 0), (0, 1)])
    with pytest.warns(UserWarning):
        with pytest.raises(DataError):
            sample_triples(train, 10, np.random.default_rng(6))


# ---------------------------------------------------------------------- loss


def make_trace(cu, ci):
    cu = np.asarray(cu, dtype=np.float64)
    ci = np.asarray(ci, dtype=np.float64)
    return ForwardTrace(
        zs=[np.vstack([cu, ci])],
        caches=[],
        concat_users=cu,
        concat_items=ci,
        num_users=len(cu),
    )


def test_loss_equal_scores_is_ln2():
    trace = make_trace([[1.0, 0.0]], [[0.3, 0.4], [0.3, 0.4]])
    batch = np.array([[0, 0, 1]])
    assert bpr_loss(trace, batch, eta=0.0) == pytest.approx(math.log(2), rel=1e-12)


def test_loss_saturates_to_zero():
    trace = make_trace([[100.0]], [[10.0], [-10.0]])
    batch = np.array([[0, 0, 1]])
    assert bpr_loss(trace, batch, eta=0.0) <= 1e-300


def test_loss_matches_brute_force():
    rng = np.random.default_rng(11)
    trace = make_trace(rng.normal(size=(6, 3)), rng.normal(size=(8, 3)))
    batch = np.column_stack(
        [rng.integers(0, 6, 40), rng.integers(0, 8, 40), rng.integers(0, 8, 40)]
    )
    eta = 0.37
    expected = 0.0
    for u, i, j in batch:
        z = float(trace.concat_users[u] @ (trace.concat_items[i] - trace.concat_items[j]))
        expected += -math.log(1.0 / (1.0 + math.exp(-z)))
    for u in sorted(set(batch[:, 0].tolist())):
        expected += eta / 2 * float(trace.concat_users[u] @ trace.concat_users[u])
    for i in sorted(set(batch[:, 1].tolist())):
        expected += eta / 2 * float(trace.concat_items[i] @ trace.concat_items[i])
    assert bpr_loss(trace, batch, eta) == pytest.approx(expected, abs=1e-12)


def test_loss_permutation_invariant():
    rng = np.random.default_rng(13)
    trace = make_trace(rng.normal(size=(5, 4)), rng.normal(size=(7, 4)))
    batch = np.column_stack(
        [rng.integers(0, 5, 64), rng.integers(0, 7, 64), rng.integers(0, 7, 64)]
    )
    a = bpr_loss(trace, batch, eta=0.2)
    b = bpr_loss(trace, batch[rng.permutation(64)], eta=0.2)
    assert abs(a - b) <= 1e-10
    assert a >= 0.0


# ----------------------------------------------------------------- gradients


def empty_params(x0, y0):
    return ModelParams(
        x0=np.asarray(x0, dtype=np.float64),
        y0=np.asarray(y0, dtype=np.float64),
        w=[],
        theta=[],
    )


def dummy_operator():
    data = interaction_set_from_pairs(1, 1, [(0, 0)])
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=2)
    bc = boxcox_fit(dec.shifted_lambdas)
    return PropagationOperator(dec, bc, t=0.0)


def test_depth_zero_gradients_match_closed_form():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(5, 4))
    params = empty_params(x, y)
    trace = make_trace(x, y)
    eta = 0.21
    u, i, j = 1, 2, 4
    batch = np.array([[u, i, j]])
    grads = backward(trace, batch, params, dummy_operator(), eta)

    z = float(x[u] @ (y[i] - y[j]))
    s = 1.0 / (1.0 + math.exp(-z))
    gx = -(1 - s) * (y[i] - y[j]) + eta * x[u]
    gyi = -(1 - s) * x[u] + eta * y[i]
    gyj = (1 - s) * x[u]

    np.testing.assert_allclose(grads.x0[u], gx, atol=1e-12)
    np.testing.assert_allclose(grads.y0[i], gyi, atol=1e-12)
    np.testing.assert_allclose(grads.y0[j], gyj, atol=1e-12)
    others = [r for r in range(3) if r != u]
    assert np.abs(grads.x0[others]).max() == 0.0


def test_gradients_match_finite_differences_fused():
    data = random_bipartite(41, max_nodes=24)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=lap.n)
    bc = boxcox_fit(dec.shifted_lambdas)
    oper = PropagationOperator(dec, bc, t=0.7)
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

    def loss_at(p):
        return bpr_loss(forward(p, oper, cfg), batch, eta)

    grads = backward(forward(params, oper, cfg), batch, params, oper, eta)
    h = 1e-4
    for name, tensor in params.tensors():
        analytic = dict(grads.tensors())[name]
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = loss_at(params)
            tensor[idx] = orig - h
            down = loss_at(params)
            tensor[idx] = orig
            fd[idx] = (up - down) / (2 * h)
            it.iternext()
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        rel = np.abs(fd - analytic).max() / scale
        assert rel <= 1e-4, f"{name}: rel error {rel:.2e}"


def test_zero_gradient_at_saturation():
    y = np.array([[1.0, 0.0], [-1.0, 0.0]])
    oper = dummy_operator()
    # margin x . (y0 - y1) = 2 x[0, 0]: +2000 saturates to dz = 0, -1000 to dz = -1
    for x, dz in (([[1000.0, 0.0]], 0.0), ([[-500.0, 0.0]], -1.0)):
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = backward(
                make_trace(x, y),
                np.array([[0, 0, 1]]),
                empty_params(x, y),
                oper,
                eta=0.0,
            )
        assert all(np.isfinite(g).all() for _, g in grads.tensors())
        np.testing.assert_array_equal(grads.x0, dz * (y[[0]] - y[[1]]))
        np.testing.assert_array_equal(grads.y0, np.vstack([dz * x, -dz * x]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_raises():
    x = np.array([[np.inf, 1.0]])
    y = np.array([[1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(NumericalError):
        backward(
            make_trace(x, y),
            np.array([[0, 0, 1]]),
            empty_params(x, y),
            dummy_operator(),
            eta=0.0,
        )


def oracle_case(layers, one_triple, seed=43):
    """(trace, batch, params, oper) for a depth-0 model on a hand-built
    trace, or a 3-layer model on a random graph. The longer batch repeats
    users and holds an item that is one triple's positive and another's
    negative."""
    rng = np.random.default_rng(seed)
    if layers == 0:
        m, k = 6, 9
        params = empty_params(rng.normal(size=(m, 4)), rng.normal(size=(k, 4)))
        trace = make_trace(params.x0, params.y0)
        oper = dummy_operator()
    else:
        data = random_bipartite(seed, max_nodes=40)
        lap = laplacian_for(data)
        dec = eigensolve(lap, q=lap.n // 2)
        oper = PropagationOperator(dec, boxcox_fit(dec.shifted_lambdas), t=0.7)
        cfg = ModelConfig(layers=layers, width=4, t=0.7, seed=seed)
        m, k = data.num_users, data.num_items
        params = init_params(cfg, m, k, q=dec.q)
        for th in params.theta:
            th += rng.normal(0, 0.5, th.shape)
        trace = forward(params, oper, cfg)
    if one_triple:
        return trace, np.array([[1, 2, 4]]), params, oper
    batch = np.column_stack(
        [rng.integers(0, 3, 40), rng.integers(0, k, 40), rng.integers(0, k, 40)]
    )
    batch = np.vstack([batch, [[0, 5, 7], [1, 7, 3]]])
    return trace, batch, params, oper


@pytest.mark.parametrize("eta", [0.0, 0.37])
@pytest.mark.parametrize("one_triple", [True, False])
@pytest.mark.parametrize("layers", [0, 3])
def test_backward_matches_add_at_oracle(layers, one_triple, eta):
    trace, batch, params, oper = oracle_case(layers, one_triple)
    if not one_triple:
        assert len(np.unique(batch[:, 0])) < len(batch)
        assert np.intersect1d(batch[:, 1], batch[:, 2]).size
    grads = dict(backward(trace, batch, params, oper, eta).tensors())
    for name, want in reference_backward(trace, batch, params, oper, eta).tensors():
        err = np.abs(grads[name] - want).max()
        assert err <= 1e-12 * np.abs(want).max(), f"{name}: {err:.2e}"


# ---------------------------------------------------------------------- adam


def test_adam_first_step_sign():
    cfg = TrainConfig(learning_rate=0.01)
    params = empty_params(np.zeros((4, 3)), np.zeros((2, 3)))
    g = np.random.default_rng(29).normal(size=(4, 3))
    grads = ModelParams(x0=g.copy(), y0=np.zeros((2, 3)), w=[], theta=[])
    state = AdamState.init(params)
    adam_step(params, grads, state, cfg)
    nz = g != 0
    assert (np.sign(params.x0[nz]) == -np.sign(g[nz])).all()


def test_adam_zero_grad_fixed_point():
    cfg = TrainConfig()
    params = empty_params(np.ones((3, 2)), np.ones((2, 2)))
    grads = ModelParams(
        x0=np.zeros((3, 2)), y0=np.zeros((2, 2)), w=[], theta=[]
    )
    state = AdamState.init(params)
    for _ in range(5):
        adam_step(params, grads, state, cfg)
    assert np.array_equal(params.x0, np.ones((3, 2)))


def test_adam_deterministic_trajectory():
    def run():
        cfg = TrainConfig(learning_rate=0.1)
        params = empty_params(np.full((2, 2), 0.5), np.full((2, 2), -0.5))
        state = AdamState.init(params)
        rng = np.random.default_rng(31)
        for _ in range(10):
            grads = ModelParams(
                x0=rng.normal(size=(2, 2)),
                y0=rng.normal(size=(2, 2)),
                w=[],
                theta=[],
            )
            adam_step(params, grads, state, cfg)
        return params

    a, b = run(), run()
    assert np.array_equal(a.x0, b.x0) and np.array_equal(a.y0, b.y0)


# ----------------------------------------------------------------------- fit


def small_problem(seed=0):
    data = synthetic_two_block(
        num_users=60, num_items=40, per_user=21, noise=0.05, seed=seed
    )
    train, test = split(data, SplitSpec(train_fraction=0.8, seed=seed))
    lap = laplacian_for(train)
    dec = eigensolve(lap, q=lap.n, seed=seed)
    bc = boxcox_fit(dec.shifted_lambdas)
    return data, train, test, dec, bc


def test_fit_beats_popularity_and_logs(capsys):
    data, train, test, dec, bc = small_problem()
    model_cfg = ModelConfig(layers=2, width=8, t=0.5, seed=1)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.05, eta=0.5, max_epochs=30, patience=5, seed=2
    )
    lines = []
    result = fit(train, dec, bc, model_cfg, train_cfg, log_fn=lines.append)
    assert result.epochs_run <= 30
    assert len(lines) == result.epochs_run
    for n, line in enumerate(lines, start=1):
        cols = line.split()
        assert len(cols) == 5
        assert int(cols[0]) == n
        float(cols[1]), float(cols[2]), float(cols[3]), int(cols[4])

    # popularity oracle on the same inner split the monitor uses
    pop = popularity_scores(train)
    tset = train.items_by_user()
    hits = []
    test_items = test.items_by_user()
    for u in range(test.num_users):
        if len(test_items[u]) == 0:
            continue
        seen = set(tset[u].tolist())
        ranked = sorted(
            (i for i in range(train.num_items) if i not in seen),
            key=lambda i: (-pop[i], i),
        )[:20]
        s = set(map(int, test_items[u]))
        hits.append(sum(1 for i in ranked if int(i) in s) / len(s))
    pop_recall = float(np.mean(hits))
    assert result.best_recall > pop_recall
    assert result.best_epoch <= 50


def test_fit_loss_mostly_decreasing():
    data, train, test, dec, bc = small_problem(seed=3)
    model_cfg = ModelConfig(layers=1, width=8, t=0.5, seed=4)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.02, eta=0.1, max_epochs=5, patience=10, seed=5
    )
    lines = []
    fit(train, dec, bc, model_cfg, train_cfg, log_fn=lines.append)
    losses = [float(line.split()[1]) for line in lines]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
    assert drops >= 3  # documented flakiness budget: 4 of 5 steps, one spare


def test_fit_patience_zero_stops_after_first_non_improvement():
    data, train, test, dec, bc = small_problem(seed=6)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=7)
    train_cfg = TrainConfig(
        batch_size=128, learning_rate=0.3, eta=0.0, max_epochs=40, patience=0, seed=8
    )
    result = fit(train, dec, bc, model_cfg, train_cfg)
    assert result.stopped_early
    assert result.epochs_run == result.best_epoch + 1


def test_fit_resume_is_bit_exact(tmp_path):
    data, train, test, dec, bc = small_problem(seed=9)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=10)

    def cfg(max_epochs):
        return TrainConfig(
            batch_size=128,
            learning_rate=0.05,
            eta=0.1,
            max_epochs=max_epochs,
            patience=100,
            seed=11,
        )

    full_lines, resumed_lines = [], []
    full = fit(train, dec, bc, model_cfg, cfg(6), log_fn=full_lines.append)

    state = tmp_path / "state.bundle"
    fit(train, dec, bc, model_cfg, cfg(3), state_path=state,
        log_fn=resumed_lines.append)
    resumed = fit(
        train, dec, bc, model_cfg, cfg(6), state_path=state, resume=True,
        log_fn=resumed_lines.append,
    )
    for (_, ta), (_, tb) in zip(
        full.final_params.tensors(), resumed.final_params.tensors()
    ):
        assert np.array_equal(ta, tb)
    assert [l.split()[:4] for l in resumed_lines] == [
        l.split()[:4] for l in full_lines
    ]

    # a state saved for another training split is refused and left alone
    other, _ = split(data, SplitSpec(train_fraction=0.8, seed=99))
    saved = state.read_bytes()
    with pytest.raises(ConfigError, match="dataset_hash"):
        fit(other, dec, bc, model_cfg, cfg(8), state_path=state, resume=True)
    assert state.read_bytes() == saved


def test_train_state_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # two identical runs whose epochs take different wall-clock times
    data, train, test, dec, bc = small_problem(seed=15)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=16)
    train_cfg = TrainConfig(
        batch_size=128, learning_rate=0.05, eta=0.1, max_epochs=2, patience=5, seed=17
    )
    states = []
    for tick in (0.001, 0.5):
        clock = iter(np.arange(1000) * tick)
        monkeypatch.setattr(
            train_mod, "time", types.SimpleNamespace(perf_counter=lambda: next(clock))
        )
        lines = []
        state = tmp_path / f"state{len(states)}.bundle"
        fit(train, dec, bc, model_cfg, train_cfg, state_path=state,
            log_fn=lines.append)
        states.append(state.read_bytes())
        assert int(lines[0].split()[4]) == round(1000 * tick)
    assert states[0] == states[1]


def test_grid_search_small():
    data, train, test, dec, bc = small_problem(seed=12)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=13)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.05, eta=0.1, max_epochs=2, patience=10, seed=14
    )
    lines = []
    rows, best_row, best_fit = grid_search(
        train,
        dec,
        bc,
        model_cfg,
        train_cfg,
        learning_rates=[0.01, 0.05],
        t_values=[0.2, 1.0],
        log_fn=lines.append,
    )
    assert len(rows) == 4
    assert len([l for l in lines if l.startswith("grid ")]) == 4
    assert best_row[2] == max(r[2] for r in rows)
    assert best_fit.best_recall == best_row[2]
    with pytest.raises(ConfigError):
        grid_search(train, dec, bc, model_cfg, train_cfg, [], [1.0])
