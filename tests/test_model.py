"""Tests for parameter init, propagation layers, forward pass, and scoring."""

import math
import warnings

import numpy as np
import pytest

from helpers import (
    concat_users,
    interaction_set_from_pairs,
    laplacian_for,
    make_trace,
    masked_sigmoid,
    random_bipartite,
    score_pairs,
    wavelet_pair_forward,
)

from waveletcf.bundles import load_bundle
from waveletcf.errors import ConfigError, DataError
from waveletcf.model import (
    ModelConfig,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    load_checkpoint,
    param_shapes,
    propagate_layer,
    save_checkpoint,
    score_user,
    sigmoid,
)
from waveletcf.spectral import eigensolve

# small random graphs make the width warning fire incidentally
pytestmark = pytest.mark.filterwarnings("ignore:embedding width")


def spectral_setup(seed=3, max_nodes=30, q=None):
    data = random_bipartite(seed, max_nodes=max_nodes)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=q or lap.n)
    return data, lap, dec


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(width=0)
    with pytest.raises(ConfigError):
        ModelConfig(t=-0.5)
    with pytest.raises(ConfigError, match="exponent_mode"):
        ModelConfig(exponent_mode="weird")


def test_init_deterministic():
    cfg = ModelConfig(layers=2, width=4, seed=9)
    a = init_params(cfg, 20, 30, q=10)
    b = init_params(cfg, 20, 30, q=10)
    for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_init_embedding_mean_bound():
    cfg = ModelConfig(layers=1, width=100, seed=0)
    params = init_params(cfg, 10_000, 200, q=5)
    assert params.x0.size == 1_000_000
    assert abs(params.x0.mean()) <= 3 * 0.01 / 1000  # 3 standard errors


def test_init_glorot_bound_and_gates():
    cfg = ModelConfig(layers=2, width=8, seed=1)
    params = init_params(cfg, 40, 40, q=6)
    bound = math.sqrt(6.0 / 16)
    for w in params.w:
        assert w.shape == (8, 8)
        assert np.abs(w).max() <= bound
    for th in params.theta:
        assert np.array_equal(th, np.ones(6))


def test_init_warns_on_oversized_width():
    cfg = ModelConfig(layers=1, width=64, seed=0)
    with pytest.warns(UserWarning, match="width"):
        init_params(cfg, 10, 10, q=4)


def test_sigmoid_bitwise_equals_masked_form():
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, np.inf, np.nan, 709.8, 745.0, 1000.0, 5e-324, tiny / 3, tiny]
    x = np.concatenate(
        [edges, np.negative(edges), np.random.default_rng(37).normal(0, 30, 10**6)]
    )
    # exp underflows in both forms; nothing may overflow or turn invalid
    with warnings.catch_warnings(), np.errstate(
        over="raise", invalid="raise", divide="raise"
    ):
        warnings.simplefilter("error")
        got = sigmoid(x)
        want = masked_sigmoid(x)
        into = sigmoid(x, out=np.empty_like(x))
        aliased = x.copy()
        sigmoid(aliased, out=aliased)
    assert got.dtype == np.float64
    nan = np.isnan(x)
    assert nan.sum() == 2 and np.isnan(got[nan]).all()
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert np.array_equal(got, into, equal_nan=True)
    assert np.array_equal(got, aliased, equal_nan=True)


def test_gate_saturation_gives_half_output():
    _, _, dec = spectral_setup()
    cfg = ModelConfig(layers=1, width=3, seed=2)
    params = init_params(cfg, 5, 5, q=dec.q)
    params.theta[0] = np.full(dec.q, -1e9)
    oper = PropagationOperator(dec, ModelConfig(t=0.5))
    rng = np.random.default_rng(0)
    z = rng.normal(size=(dec.n, 3))
    out, _ = propagate_layer(z, 0, params, oper)
    np.testing.assert_allclose(out, 0.5, atol=1e-12)


def test_layer_matches_dense_oracle():
    # hand-assembled dense evaluation of the propagation rule
    data = interaction_set_from_pairs(1, 1, [(0, 0)])
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=2)
    oper = PropagationOperator(dec, ModelConfig(t=0.7))
    cfg = ModelConfig(layers=1, width=1, seed=4)
    params = init_params(cfg, 1, 1, q=2)
    params.theta[0] = np.array([0.3, -0.8])
    z = np.array([[0.2], [-0.4]])

    g = oper.g
    h = sigmoid(g * params.theta[0])
    psi = (dec.phi * g) @ dec.phi.T
    psi_inv = (dec.phi * (1 / g)) @ dec.phi.T
    lam_h = (dec.phi * (dec.shifted_lambdas * h)) @ dec.phi.T
    expected = sigmoid(psi @ lam_h @ psi_inv @ z @ params.w[0])

    out, _ = propagate_layer(z, 0, params, oper)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_layer_output_range():
    _, _, dec = spectral_setup(seed=8)
    cfg = ModelConfig(layers=1, width=4, seed=5)
    params = init_params(cfg, 9, 9, q=dec.q)
    oper = PropagationOperator(dec, ModelConfig(t=0.2))
    z = np.random.default_rng(1).normal(size=(dec.n, 4)) * 3
    out, _ = propagate_layer(z, 0, params, oper)
    assert (out > 0).all() and (out < 1).all()


@pytest.mark.parametrize(
    "max_nodes, q", [(40, None), (100, 30)], ids=["full", "truncated"]
)
def test_forward_matches_wavelet_pair_oracle(max_nodes, q):
    data, lap, dec = spectral_setup(seed=12, max_nodes=max_nodes, q=q)
    cfg = ModelConfig(layers=2, width=3, seed=6)
    params = init_params(cfg, data.num_users, data.num_items, q=dec.q)
    rng = np.random.default_rng(3)
    for th in params.theta:
        th += rng.normal(0, 0.5, th.shape)
    trace = forward(params, PropagationOperator(dec, ModelConfig(t=0.5)))
    users, items = wavelet_pair_forward(params, dec, 0.5, cfg.layers)
    assert np.abs(concat_users(trace) - users).max() <= 1e-8
    assert np.abs(trace.concat_items - items).max() <= 1e-8


def test_forward_concatenation_shapes():
    data, lap, dec = spectral_setup(seed=14, max_nodes=40)
    cfg = ModelConfig(layers=3, width=4, seed=7)
    params = init_params(cfg, data.num_users, data.num_items, q=dec.q)
    oper = PropagationOperator(dec, ModelConfig(t=0.3))
    trace = forward(params, oper)
    assert concat_users(trace).shape == (data.num_users, 16)
    assert trace.concat_items.shape == (data.num_items, 16)
    assert np.isfinite(concat_users(trace)).all()
    assert np.isfinite(trace.concat_items).all()
    # layer 0 slice of the concatenation is the raw embedding block
    np.testing.assert_array_equal(concat_users(trace)[:, :4], params.x0)
    np.testing.assert_array_equal(trace.concat_items[:, :4], params.y0)


def test_forward_deterministic():
    data, lap, dec = spectral_setup(seed=15, max_nodes=40)
    cfg = ModelConfig(layers=2, width=3, seed=8)
    params = init_params(cfg, data.num_users, data.num_items, q=dec.q)
    oper = PropagationOperator(dec, ModelConfig(t=0.4))
    t1 = forward(params, oper)
    t2 = forward(params, oper)
    assert np.array_equal(concat_users(t1), concat_users(t2))
    assert np.array_equal(t1.concat_items, t2.concat_items)


def test_forward_into_a_trace_overwrites_it():
    data, lap, dec = spectral_setup(seed=15, max_nodes=40)
    cfg = ModelConfig(layers=2, width=3, seed=8)
    params = init_params(cfg, data.num_users, data.num_items, q=dec.q)
    oper = PropagationOperator(dec, ModelConfig(t=0.4))
    trace = forward(params, oper)
    stale = trace.concat_items
    params.y0 += 0.5
    assert forward(params, oper, out=trace) is trace
    fresh = forward(params, oper)
    assert np.array_equal(trace.zs, fresh.zs)
    # the cached item concatenation is rebuilt, not served stale
    assert np.array_equal(trace.concat_items, fresh.concat_items)
    assert not np.array_equal(trace.concat_items, stale)


def test_score_zero_item():
    trace = make_trace([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0]])
    assert score_pairs(trace, np.array([0, 1]), np.array([0, 0])).tolist() == [0, 0]


def test_score_self_similarity():
    v = [[0.5, -1.5, 2.0]]
    trace = make_trace(v, v)
    assert score_pairs(trace, np.array([0]), np.array([0]))[0] == pytest.approx(
        0.25 + 2.25 + 4.0
    )


def test_row_scoring_matches_pairwise():
    rng = np.random.default_rng(20)
    trace = make_trace(rng.normal(size=(30, 6)), rng.normal(size=(40, 6)))
    users = rng.integers(0, 30, 100)
    items = rng.integers(0, 40, 100)
    pair = score_pairs(trace, users, items)
    for n in range(100):
        assert abs(score_user(trace, users[n])[items[n]] - pair[n]) <= 1e-12


def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig(layers=2, width=3, seed=11)
    params = init_params(cfg, 12, 9, q=5)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, cfg, params, dataset_hash="d" * 64, basis="b" * 64,
                    extra_meta={"epoch": 4})
    cfg2, params2, meta = load_checkpoint(p, 12, 9, 5, expected_dataset_hash="d" * 64)
    assert cfg2 == cfg
    assert (meta["epoch"], meta["basis"]) == (4, "b" * 64)
    for (_, ta), (_, tb) in zip(params.tensors(), params2.tensors()):
        assert np.array_equal(ta, tb)


@pytest.mark.parametrize(
    "layers, width, m, k, q", [(1, 1, 1, 1, 1), (2, 3, 12, 9, 5), (4, 16, 7, 30, 37)]
)
def test_param_shapes_are_the_shapes_init_draws(layers, width, m, k, q):
    cfg = ModelConfig(layers=layers, width=width, seed=0)
    drawn = [(name, t.shape) for name, t in init_params(cfg, m, k, q).tensors()]
    assert drawn == list(param_shapes(cfg, m, k, q).items())


def test_checkpoint_with_num_theta_still_loads(tmp_path):
    cfg = ModelConfig(layers=2, width=3, seed=11)
    params = init_params(cfg, 12, 9, q=5)
    fresh, old = tmp_path / "fresh.ckpt", tmp_path / "old.ckpt"
    save_checkpoint(fresh, cfg, params, dataset_hash="d" * 64, basis="b" * 64)
    assert "num_theta" not in load_bundle(fresh)[0]
    # checkpoints of older builds also record the gate count
    save_checkpoint(
        old, cfg, params, dataset_hash="d" * 64, basis="b" * 64,
        extra_meta={"num_theta": 2},
    )
    assert load_bundle(old)[0]["num_theta"] == 2
    cfg2, params2, _ = load_checkpoint(old, 12, 9, 5, expected_dataset_hash="d" * 64)
    assert cfg2 == cfg
    for (_, ta), (_, tb) in zip(params.tensors(), params2.tensors()):
        assert np.array_equal(ta, tb)


def test_checkpoint_hash_refusal(tmp_path):
    cfg = ModelConfig(layers=1, width=2, seed=0)
    params = init_params(cfg, 6, 6, q=3)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, cfg, params, dataset_hash="d" * 64, basis="b" * 64)
    with pytest.raises(DataError, match="dataset"):
        load_checkpoint(p, 6, 6, 3, expected_dataset_hash="e" * 64)
