"""Tests for triple sampling, loss, gradients, Adam, and the fit loop."""

import math
import tracemalloc
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    concat_users,
    interaction_set_from_pairs,
    laplacian_for,
    make_trace,
    random_bipartite,
    reference_backward,
    reference_step,
    reference_triples,
    synthetic_two_block,
)

from waveletcf import train as train_mod
from waveletcf.errors import ConfigError, DataError, NumericalError
from waveletcf.evaluate import evaluate, popularity_scores
from waveletcf.ingest import SplitSpec, split
from waveletcf.model import (
    ModelConfig,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    param_shapes,
    score_user,
)
from waveletcf.seeds import VAL_SPLIT, child_seed
from waveletcf.spectral import SpectralDecomposition, eigensolve
from waveletcf.train import (
    AdamState,
    BatchRows,
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
    # redrawing and re-testing only the rejected negatives, round by round,
    # draws what re-testing every negative each round draws
    assert np.array_equal(triples, reference_triples(train, 200_000, np.random.default_rng(3)))
    counts = np.bincount(triples[:, 2], minlength=200)
    negatives = np.array(sorted(set(range(200)) - positives))
    expected = 200_000 / 100
    assert np.abs(counts[negatives] - expected).max() <= 5 * math.sqrt(expected)


def test_sampling_deterministic():
    train = interaction_set_from_pairs(3, 5, [(0, 0), (0, 1), (1, 2), (2, 3)])
    a = sample_triples(train, 100, np.random.default_rng(7))
    b = sample_triples(train, 100, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_negatives_never_positive_with_an_exhausted_user():
    # the positive lookup binary-searches the masked pairs' keys without
    # sorting them, so pairs given in shuffled order must still be found
    rng = np.random.default_rng(9)
    m, k = 7, 9
    pairs = [(u, i) for u in range(m) for i in range(k) if rng.random() < 0.4]
    pairs += [(3, i) for i in range(k) if (3, i) not in pairs]  # exhausted
    pairs = [pairs[r] for r in rng.permutation(len(pairs))]
    train = interaction_set_from_pairs(m, k, pairs)
    positives = set(map(tuple, train.pairs.tolist()))
    with pytest.warns(UserWarning, match="every item"):
        triples = sample_triples(train, 20_000, np.random.default_rng(10))
    assert np.array_equal(triples, reference_triples(train, 20_000, np.random.default_rng(10)))
    drawn = {(int(u), int(j)) for u, _, j in triples}
    assert not drawn & positives
    assert drawn == {
        (u, j) for u in {u for u, _ in positives} - {3} for j in range(k)
    } - positives


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


def test_loss_equal_scores_is_ln2():
    trace = make_trace([[1.0, 0.0]], [[0.3, 0.4], [0.3, 0.4]])
    batch = np.array([[0, 0, 1]])
    assert bpr_loss(trace, BatchRows(trace, batch), eta=0.0) == pytest.approx(
        math.log(2), rel=1e-12
    )


def test_loss_saturates_to_zero():
    trace = make_trace([[100.0]], [[10.0], [-10.0]])
    batch = np.array([[0, 0, 1]])
    assert bpr_loss(trace, BatchRows(trace, batch), eta=0.0) <= 1e-300


def test_loss_matches_brute_force():
    rng = np.random.default_rng(11)
    trace = make_trace(rng.normal(size=(6, 3)), rng.normal(size=(8, 3)))
    batch = np.column_stack(
        [rng.integers(0, 6, 40), rng.integers(0, 8, 40), rng.integers(0, 8, 40)]
    )
    eta = 0.37
    expected = 0.0
    for u, i, j in batch:
        z = float(concat_users(trace)[u] @ (trace.concat_items[i] - trace.concat_items[j]))
        expected += -math.log(1.0 / (1.0 + math.exp(-z)))
    for u in sorted(set(batch[:, 0].tolist())):
        expected += eta / 2 * float(concat_users(trace)[u] @ concat_users(trace)[u])
    for i in sorted(set(batch[:, 1].tolist())):
        expected += eta / 2 * float(trace.concat_items[i] @ trace.concat_items[i])
    assert bpr_loss(trace, BatchRows(trace, batch), eta) == pytest.approx(
        expected, abs=1e-12
    )


def test_loss_permutation_invariant():
    rng = np.random.default_rng(13)
    trace = make_trace(rng.normal(size=(5, 4)), rng.normal(size=(7, 4)))
    batch = np.column_stack(
        [rng.integers(0, 5, 64), rng.integers(0, 7, 64), rng.integers(0, 7, 64)]
    )
    a = bpr_loss(trace, BatchRows(trace, batch), eta=0.2)
    shuffled = batch[rng.permutation(64)]
    b = bpr_loss(trace, BatchRows(trace, shuffled), eta=0.2)
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
    return PropagationOperator(dec, ModelConfig(t=0.0))


def test_depth_zero_gradients_match_closed_form():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(5, 4))
    params = empty_params(x, y)
    trace = make_trace(x, y)
    eta = 0.21
    u, i, j = 1, 2, 4
    batch = np.array([[u, i, j]])
    grads = backward(trace, BatchRows(trace, batch), params, dummy_operator(), eta)

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

    def loss_at(p):
        trace = forward(p, oper)
        return bpr_loss(trace, BatchRows(trace, batch), eta)

    trace = forward(params, oper)
    grads = backward(trace, BatchRows(trace, batch), params, oper, eta)
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
            trace = make_trace(x, y)
            rows = BatchRows(trace, np.array([[0, 0, 1]]))
            grads = backward(trace, rows, empty_params(x, y), oper, eta=0.0)
        assert all(np.isfinite(g).all() for _, g in grads.tensors())
        np.testing.assert_array_equal(grads.x0, dz * (y[[0]] - y[[1]]))
        np.testing.assert_array_equal(grads.y0, np.vstack([dz * x, -dz * x]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_raises():
    x = np.array([[np.inf, 1.0]])
    y = np.array([[1.0, 0.0], [0.5, 0.0]])
    trace = make_trace(x, y)
    rows = BatchRows(trace, np.array([[0, 0, 1]]))
    with pytest.raises(NumericalError):
        backward(trace, rows, empty_params(x, y), dummy_operator(), eta=0.0)


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
        oper = PropagationOperator(dec, ModelConfig(t=0.7))
        cfg = ModelConfig(layers=layers, width=4, t=0.7, seed=seed)
        m, k = data.num_users, data.num_items
        params = init_params(cfg, m, k, q=dec.q)
        for th in params.theta:
            th += rng.normal(0, 0.5, th.shape)
        trace = forward(params, oper)
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
    grads = dict(backward(trace, BatchRows(trace, batch), params, oper, eta).tensors())
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
    return data, train, test, dec


def test_fit_beats_popularity_and_logs(capsys):
    data, train, test, dec = small_problem()
    model_cfg = ModelConfig(layers=2, width=8, t=0.5, seed=1)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.05, eta=0.5, max_epochs=30, patience=5, seed=2
    )
    lines = []
    result = fit(train, dec, model_cfg, train_cfg, log_fn=lines.append)
    assert result.epoch <= 30
    assert len(lines) == result.epoch
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
    data, train, test, dec = small_problem(seed=3)
    model_cfg = ModelConfig(layers=1, width=8, t=0.5, seed=4)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.02, eta=0.1, max_epochs=5, patience=10, seed=5
    )
    lines = []
    fit(train, dec, model_cfg, train_cfg, log_fn=lines.append)
    losses = [float(line.split()[1]) for line in lines]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
    assert drops >= 3  # documented flakiness budget: 4 of 5 steps, one spare


def test_fit_patience_zero_stops_after_first_non_improvement():
    data, train, test, dec = small_problem(seed=6)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=7)
    train_cfg = TrainConfig(
        batch_size=128, learning_rate=0.3, eta=0.0, max_epochs=40, patience=0, seed=8
    )
    result = fit(train, dec, model_cfg, train_cfg)
    assert result.since_best > train_cfg.patience
    assert result.epoch == result.best_epoch + 1


def test_fit_resume_is_bit_exact(tmp_path):
    data, train, test, dec = small_problem(seed=9)
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
    full = fit(train, dec, model_cfg, cfg(6), log_fn=full_lines.append)

    state = tmp_path / "state.bundle"
    fit(train, dec, model_cfg, cfg(3), state_path=state,
        log_fn=resumed_lines.append)
    resumed = fit(
        train, dec, model_cfg, cfg(6), state_path=state, resume=True,
        log_fn=resumed_lines.append,
    )
    for (_, ta), (_, tb) in zip(
        full.params.tensors(), resumed.params.tensors()
    ):
        assert np.array_equal(ta, tb)
    assert [l.split()[:4] for l in resumed_lines] == [
        l.split()[:4] for l in full_lines
    ]

    # a state saved for another training split is refused and left alone
    other, _ = split(data, SplitSpec(train_fraction=0.8, seed=99))
    saved = state.read_bytes()
    with pytest.raises(ConfigError, match="dataset_hash"):
        fit(other, dec, model_cfg, cfg(8), state_path=state, resume=True)
    assert state.read_bytes() == saved


def test_fit_resume_refuses_another_eigenbasis(tmp_path):
    # a state trained on one eigenbasis is refused on a basis that differs
    # in one bit of one entry of Phi, even at the same q and dataset
    data, train, test, dec = small_problem(seed=9)
    model_cfg = ModelConfig(layers=1, width=4)
    state = tmp_path / "state.bundle"
    fit(train, dec, model_cfg, TrainConfig(max_epochs=1), state_path=state)
    saved = state.read_bytes()
    phi = dec.phi.copy()
    phi[0, 0] = np.nextafter(phi[0, 0], np.inf)
    other = SpectralDecomposition(dec.lambdas, phi)
    with pytest.raises(ConfigError, match="saved state has basis="):
        fit(train, other, model_cfg, TrainConfig(max_epochs=2), state_path=state,
            resume=True)
    assert state.read_bytes() == saved


def test_fit_runs_train_step_once_per_batch(monkeypatch):
    # fit's batch loop is `train.step`, the step the bitwise and allocation
    # gates below run: one call per batch of each epoch's triples
    data, train, test, dec = small_problem(seed=9)
    train_cfg = TrainConfig(batch_size=100, max_epochs=2, patience=5, seed=3)
    inner, _ = split(train, SplitSpec(train_fraction=1.0 - train_cfg.val_fraction,
                                      seed=child_seed(train_cfg.seed, VAL_SPLIT)))
    sizes, real_step = [], train_mod.step

    def counted(trace, batch, *args):
        sizes.append(len(batch))
        return real_step(trace, batch, *args)

    monkeypatch.setattr(train_mod, "step", counted)
    state = fit(train, dec, ModelConfig(layers=1, width=4), train_cfg)
    assert state.epoch == 2
    assert len(sizes) == 2 * math.ceil(inner.num_pairs / train_cfg.batch_size)
    assert sum(sizes) == 2 * inner.num_pairs


@pytest.mark.parametrize("state_path", [None, ""])
def test_fit_resume_needs_a_state_path(state_path):
    data, train, test, dec = small_problem(seed=9)
    with pytest.raises(ConfigError, match="train_state"):
        fit(train, dec, ModelConfig(layers=1, width=4), TrainConfig(),
            state_path=state_path, resume=True)


def test_fit_with_an_empty_state_path_saves_no_state(tmp_path, monkeypatch):
    # "" means unset here as for the resume guard: no state is written
    monkeypatch.chdir(tmp_path)
    data, train, test, dec = small_problem(seed=9)
    state = fit(train, dec, ModelConfig(layers=1, width=4),
                TrainConfig(max_epochs=1), state_path="")
    assert state.epoch == 1
    assert list(tmp_path.iterdir()) == []


def test_train_state_round_trip(tmp_path):
    # a state saved after two steps, loaded and saved again: the same bytes,
    # and every tensor set, counter and the generator come back as saved
    data, train, test, dec = small_problem(seed=25)
    model_cfg = ModelConfig(layers=2, width=4, t=0.5, seed=26)
    train_cfg = TrainConfig(batch_size=64, learning_rate=0.05, eta=0.1)
    oper = PropagationOperator(dec, model_cfg)
    sizes = (model_cfg, train.num_users, train.num_items, dec.q)
    params = init_params(*sizes)
    state = train_mod.TrainState(
        params, params.map(np.copy), AdamState.init(params), np.random.default_rng(27),
        epoch=2, best_epoch=1, best_recall=0.25, best_ndcg=0.125, since_best=1,
    )
    trace = None
    for _ in range(2):
        batch = sample_triples(train, train_cfg.batch_size, state.rng)
        trace, _ = train_mod.step(trace, batch, params, oper, state.adam, train_cfg)
    run_key = {"q": dec.q, "model.seed": model_cfg.seed}
    first, second = tmp_path / "first.bundle", tmp_path / "second.bundle"
    state.save(first, run_key)
    loaded = train_mod.TrainState.load(
        first, run_key, param_shapes(*sizes), np.random.default_rng(0)
    )
    loaded.save(second, run_key)
    assert first.read_bytes() == second.read_bytes()

    def tensor_sets(s):
        return (s.params, s.best_params, s.adam.m, s.adam.v)

    # the four sets differ, so a mixed-up prefix would show
    assert len({float(s.x0.sum()) for s in tensor_sets(state)}) == 4
    for want, got in zip(tensor_sets(state), tensor_sets(loaded), strict=True):
        for (name, a), (_, b) in zip(want.tensors(), got.tensors(), strict=True):
            assert np.array_equal(a, b), name
    for key in train_mod.TrainState.COUNTERS:
        assert getattr(loaded, key) == getattr(state, key), key
    assert loaded.adam.step == state.adam.step == 2
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    assert loaded.rng.integers(1 << 62) == state.rng.integers(1 << 62)


def test_train_state_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # two identical runs whose epochs take different wall-clock times
    data, train, test, dec = small_problem(seed=15)
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
        fit(train, dec, model_cfg, train_cfg, state_path=state,
            log_fn=lines.append)
        states.append(state.read_bytes())
        assert int(lines[0].split()[4]) == round(1000 * tick)
    assert states[0] == states[1]


def test_grid_search_small():
    data, train, test, dec = small_problem(seed=12)
    model_cfg = ModelConfig(layers=1, width=4, t=0.5, seed=13)
    train_cfg = TrainConfig(
        batch_size=256, learning_rate=0.05, eta=0.1, max_epochs=2, patience=10, seed=14
    )
    cells = [(replace(model_cfg, t=t), replace(train_cfg, learning_rate=lr))
             for lr in (0.01, 0.05) for t in (0.2, 1.0)]
    lines = []
    best_model, best_train, best_fit = grid_search(train, dec, cells, log_fn=lines.append)
    assert [l.split()[:3] for l in lines] == [
        ["grid", f"lr={lr}", f"t={t}"] for lr in (0.01, 0.05) for t in (0.2, 1.0)
    ]
    # each cell refitted on its own: the returned cell is the first best one
    recalls = [fit(train, dec, *cell).best_recall for cell in cells]
    assert (best_model, best_train) == cells[recalls.index(max(recalls))]
    assert best_fit.best_recall == max(recalls)
    with pytest.raises(ConfigError):
        grid_search(train, dec, [])


@pytest.mark.parametrize("eta", [0.0, 0.37])
def test_steps_match_reference_step_bitwise(eta):
    # two epochs of the training loop's steps against the step as it ran
    # before the reused workspace: every loss, parameter and Adam moment
    # must agree to the bit
    data, train, test, dec = small_problem(seed=21)
    model_cfg = ModelConfig(layers=3, width=8, t=0.5, seed=22)
    train_cfg = TrainConfig(batch_size=100, learning_rate=0.05, eta=eta)
    oper = PropagationOperator(dec, model_cfg)
    params = init_params(model_cfg, train.num_users, train.num_items, dec.q)
    ref_params = params.map(np.copy)
    adam, ref_adam = AdamState.init(params), AdamState.init(ref_params)
    rng = np.random.default_rng(23)
    trace, batches = None, []
    for _ in range(2):
        triples = sample_triples(train, train.num_pairs, rng)
        for lo in range(0, len(triples), train_cfg.batch_size):
            batch = triples[lo: lo + train_cfg.batch_size]
            trace, loss = train_mod.step(trace, batch, params, oper, adam, train_cfg)
            want = reference_step(ref_params, oper, 3, batch, ref_adam, train_cfg)
            assert loss == want
            batches.append(batch)
    for mine, ref in ((params, ref_params), (adam.m, ref_adam.m), (adam.v, ref_adam.v)):
        for (name, got), (_, want) in zip(mine.tensors(), ref.tensors(), strict=True):
            assert np.array_equal(got, want), name
    assert adam.step == ref_adam.step == len(batches)
    # the batches cover repeated users, an item that is one triple's
    # positive and another's negative, and a short last batch
    assert all(len(np.unique(b[:, 0])) < len(b) for b in batches)
    assert all(np.intersect1d(b[:, 1], b[:, 2]).size for b in batches)
    assert len(batches[-1]) < train_cfg.batch_size


def test_warmed_step_allocates_less_than_one_layer_block():
    # |R| << N: a 32-triple batch touches at most 96 of the 3400 rows, so a
    # step that reuses its buffers needs far less than one N x P block
    data = synthetic_two_block(num_users=2400, num_items=1000, per_user=10, seed=3)
    dec = eigensolve(laplacian_for(data), q=16)
    oper = PropagationOperator(dec, ModelConfig(t=0.5))
    model_cfg = ModelConfig(layers=3, width=64, t=0.5, seed=1)
    train_cfg = TrainConfig(batch_size=32, eta=0.37)
    params = init_params(model_cfg, data.num_users, data.num_items, dec.q)
    adam = AdamState.init(params)
    triples = sample_triples(data, 64, np.random.default_rng(2))
    # the first step allocates the trace and Adam's scratch
    trace, _ = train_mod.step(None, triples[:32], params, oper, adam, train_cfg)
    tracemalloc.start()
    try:
        train_mod.step(trace, triples[32:], params, oper, adam, train_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = dec.n * model_cfg.width * 8
    assert peak < block, f"step peak {peak} B >= one N x P block ({block} B)"
