"""Tests for the eigensolver, power-transform fit, filter, and wavelets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    cluster_projector_error,
    dense_eigh,
    interaction_set_from_pairs,
    laplacian_for,
    random_bipartite,
)

from waveletcf.errors import ConfigError, DataError, NumericalError
from waveletcf.ingest import dataset_hash
from waveletcf.spectral import (
    BoxCoxResult,
    SpectralDecomposition,
    boxcox_fit,
    boxcox_transform,
    build_wavelet_pair,
    default_q,
    eigensolve,
    filter_response,
    load_spectral_cache,
    save_spectral_cache,
)

# ---------------------------------------------------------------- eigensolve


def test_two_node_analytic():
    lap = laplacian_for(interaction_set_from_pairs(1, 1, [(0, 0)]))
    dec = eigensolve(lap, q=2)
    np.testing.assert_allclose(dec.lambdas, [0.0, 2.0], atol=1e-10)
    s = 1 / math.sqrt(2)
    for col, target in ((0, [s, s]), (1, [s, -s])):
        v = dec.phi[:, col]
        err = min(np.abs(v - target).max(), np.abs(v + target).max())
        assert err <= 1e-10


def test_complete_bipartite_k23():
    pairs = [(u, i) for u in range(2) for i in range(3)]
    lap = laplacian_for(interaction_set_from_pairs(2, 3, pairs))
    dec = eigensolve(lap, q=5)
    np.testing.assert_allclose(dec.lambdas, [0, 1, 1, 1, 2], atol=1e-9)


def test_full_spectrum_matches_dense_oracle():
    for seed in (1, 2, 3):
        lap = laplacian_for(random_bipartite(seed, max_nodes=90))
        oracle_vals, oracle_vecs = dense_eigh(lap)
        dec = eigensolve(lap, q=lap.n, seed=seed)
        assert np.abs(dec.lambdas - np.clip(oracle_vals, 0, 2)).max() <= 1e-8
        assert cluster_projector_error(oracle_vals, dec.phi, oracle_vecs) <= 1e-6


def test_truncated_matches_dense_oracle():
    lap = laplacian_for(random_bipartite(11, max_nodes=80))
    q = lap.n // 4
    oracle_vals, oracle_vecs = dense_eigh(lap)
    dec = eigensolve(lap, q=q, seed=0)
    assert np.abs(dec.lambdas - np.clip(oracle_vals[:q], 0, 2)).max() <= 1e-8
    assert (
        cluster_projector_error(oracle_vals[:q], dec.phi, oracle_vecs[:, :q]) <= 1e-6
    )


def two_component_graph():
    a = random_bipartite(0, max_nodes=60)
    b = random_bipartite(100, max_nodes=60)
    pairs = [(int(u), int(i)) for u, i in a.pairs] + [
        (a.num_users + int(u), a.num_items + int(i)) for u, i in b.pairs
    ]
    return interaction_set_from_pairs(
        a.num_users + b.num_users, a.num_items + b.num_items, pairs
    )


@pytest.mark.parametrize("q", [2, 4, 8])
def test_disconnected_matches_dense_oracle(q):
    # one exact lambda = 0 per component, like the oracle
    lap = laplacian_for(two_component_graph())
    oracle_vals, oracle_vecs = dense_eigh(lap)
    dec = eigensolve(lap, q=q)
    assert np.abs(dec.lambdas - np.clip(oracle_vals[:q], 0, 2)).max() <= 1e-8
    assert (
        cluster_projector_error(oracle_vals[:q], dec.phi, oracle_vecs[:, :q]) <= 1e-6
    )


def test_rank_deficient_matches_dense_oracle():
    # three user types, 40 users, 30 items: R has rank 3, so q = 5 and 10
    # reach singular value 0 (lambda = 1) while q < min(users, items)
    pairs = [
        (u, i)
        for u in range(40)
        for i in range(30)
        if (u % 3 == 0 and i < 10)
        or (u % 3 == 1 and 10 <= i < 20)
        or (u % 3 == 2 and i >= 15)
    ]
    lap = laplacian_for(interaction_set_from_pairs(40, 30, pairs))
    oracle_vals, _ = dense_eigh(lap)
    for q in (3, 5, 10):
        dec = eigensolve(lap, q=q)
        assert np.abs(dec.lambdas - np.clip(oracle_vals[:q], 0, 2)).max() <= 1e-8
        assert np.abs(dec.phi.T @ dec.phi - np.eye(q)).max() <= 1e-8


def test_decomposition_invariants():
    lap = laplacian_for(random_bipartite(5, max_nodes=70))
    dec = eigensolve(lap, q=lap.n)
    assert np.abs(dec.phi.T @ dec.phi - np.eye(dec.q)).max() <= 1e-8
    res = lap.lap.matvec(dec.phi) - dec.phi * dec.lambdas
    assert np.linalg.norm(res, axis=0).max() <= 1e-6
    assert (np.diff(dec.lambdas) >= 0).all()
    assert dec.lambdas[0] <= 1e-8
    np.testing.assert_allclose(dec.shifted_lambdas, 1 + dec.lambdas)


def test_eigensolve_deterministic():
    lap = laplacian_for(random_bipartite(7, max_nodes=60))
    a = eigensolve(lap, q=10, seed=42)
    b = eigensolve(lap, q=10, seed=42)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_eigensolve_unreachable_tolerance():
    lap = laplacian_for(random_bipartite(9, max_nodes=40))
    with pytest.raises(NumericalError) as exc:
        eigensolve(lap, q=4, tol=1e-300)
    assert "residual_norms" in exc.value.details


def test_eigensolve_rejects_bad_q():
    lap = laplacian_for(interaction_set_from_pairs(1, 1, [(0, 0)]))
    with pytest.raises(ConfigError):
        eigensolve(lap, q=0)
    with pytest.raises(ConfigError):
        eigensolve(lap, q=3)


def test_default_q():
    assert default_q(50) == 50
    assert default_q(100) == 64
    assert default_q(10000) == 200


# ------------------------------------------------------------------- box-cox


def test_transform_kappa_one():
    assert boxcox_transform(np.array([2.5]), 1.0)[0] == pytest.approx(1.5, abs=0)


def test_transform_kappa_zero():
    assert boxcox_transform(np.array([math.e]), 0.0)[0] == pytest.approx(1.0, rel=1e-15)


def brute_kappa(values, step=1e-5, bounds=(-5.0, 5.0)):
    """Brute-force grid maximizer of the profile log-likelihood."""
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
    return best_k, best_ll


def loglik(values, kappa):
    y = boxcox_transform(np.asarray(values, dtype=np.float64), kappa)
    return -0.5 * len(values) * math.log(y.var()) + (kappa - 1.0) * np.log(
        values
    ).sum()


def test_fit_matches_brute_force_grid():
    sample = np.array([1.0, 1.2, 1.5, 2.1, 2.9])
    fit = boxcox_fit(sample)
    k_grid, ll_grid = brute_kappa(sample)
    assert abs(fit.kappa - k_grid) <= 1e-3
    assert abs(loglik(sample, fit.kappa) - ll_grid) <= 1e-8


def test_fit_statistics():
    sample = np.array([1.0, 1.5, 2.0, 3.0])
    fit = boxcox_fit(sample)
    y = boxcox_transform(sample, fit.kappa)
    np.testing.assert_allclose(fit.transformed, y)
    assert fit.mean == pytest.approx(y.mean())
    assert fit.std == pytest.approx(y.std(ddof=1))  # divisor Q-1
    assert fit.total == pytest.approx(y.sum())
    assert fit.total > 0
    assert not fit.degenerate


def test_fit_degenerate_all_equal():
    fit = boxcox_fit(np.full(6, 1.7))
    assert fit.kappa == 1.0
    assert fit.std == 0.0
    assert fit.degenerate


def test_transform_monotone_for_fitted_kappa():
    lams = np.sort(1 + np.random.default_rng(3).uniform(0, 2, 30))
    fit = boxcox_fit(lams)
    assert (np.diff(fit.transformed) > 0).all()


def test_fit_rejects_bad_input():
    with pytest.raises(NumericalError):
        boxcox_fit(np.array([1.0]))
    with pytest.raises(NumericalError):
        boxcox_fit(np.array([1.0, -0.5]))


# ------------------------------------------------------------------ filter


def make_bc(kappa=1.0, mean=0.5, std=0.2, total=1.7, transformed=(0.0,)):
    return BoxCoxResult(
        kappa=kappa,
        transformed=np.array(transformed, dtype=float),
        mean=mean,
        std=std,
        total=total,
    )


def decomposition(shifted_lambdas):
    """A decomposition holding only the given shifted eigenvalues."""
    lam = np.array(shifted_lambdas, dtype=float)
    return SpectralDecomposition(
        q=len(lam), lambdas=lam - 1.0, shifted_lambdas=lam, phi=np.eye(len(lam))
    )


def response_at(bc, shifted_lambda, value, t, exponent_mode="power"):
    """filter_response of one eigenvalue whose transformed value is `value`."""
    bc = replace(bc, transformed=np.array([value]))
    (g,) = filter_response(decomposition([shifted_lambda]), bc, t, exponent_mode)
    return g


def test_transfer_base_case():
    # arg = 1^kappa = 1, value below the mean, t=0 -> e^{-1}
    bc = make_bc()
    assert response_at(bc, 1.0, 0.0, 0.0) == pytest.approx(math.exp(-1), rel=1e-12)


def test_transfer_half_c_scale():
    bc = make_bc(total=1.7)
    g = response_at(bc, 1.0, 0.0, t=1.7 / 2)
    assert g == pytest.approx(math.exp(-2), rel=1e-12)


def test_transfer_band_ordering():
    bc = make_bc(mean=1.0, std=0.2, total=2.0)
    t = 0.3
    vals = [0.5, 1.0, 1.25, 1.5]  # one per case
    gs = [response_at(bc, 1.3, v, t) for v in vals]
    assert gs[0] > gs[1] > gs[2] > gs[3]


def test_transfer_boundaries_go_to_higher_case():
    mu, sigma, c = 1.0, 0.2, 2.0
    bc = make_bc(mean=mu, std=sigma, total=c)
    t = 0.5
    lam = 1.4
    arg = lam  # kappa = 1

    def expected(mult):
        return math.exp(-arg * mult)

    assert response_at(bc, lam, mu, t) == pytest.approx(
        expected(1 + 3 * t / c + sigma), rel=1e-12
    )
    assert response_at(bc, lam, mu + sigma, t) == pytest.approx(
        expected(1 + 4 * t / c + sigma), rel=1e-12
    )
    assert response_at(bc, lam, mu + 2 * sigma, t) == pytest.approx(
        expected(1 + 5 * t / c + sigma), rel=1e-12
    )


def test_transfer_exponent_modes():
    bc = make_bc(kappa=2.0, mean=10.0)
    lam = 1.5
    value = 0.3
    power = response_at(bc, lam, value, 0.0, exponent_mode="power")
    alt = response_at(bc, lam, value, 0.0, exponent_mode="boxcox")
    assert power == pytest.approx(math.exp(-(lam**2.0)), rel=1e-12)
    assert alt == pytest.approx(math.exp(-value), rel=1e-12)
    with pytest.raises(ConfigError):
        response_at(bc, lam, value, 0.0, exponent_mode="weird")


def test_transfer_requires_positive_total():
    bc = make_bc(total=0.0)
    with pytest.raises(NumericalError):
        response_at(bc, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        response_at(make_bc(), 1.0, 0.0, -1.0)


def test_filter_response_matches_closed_form_in_one_call():
    mu, sigma, c, kappa, t = 1.0, 0.2, 2.0, 1.5, 0.3
    # two values per case; mu, mu + sigma and mu + 2 sigma open the higher one
    y = np.array([0.5, 0.9, mu, 1.1, mu + sigma, 1.3, mu + 2 * sigma, 1.7])
    case = [0, 0, 1, 1, 2, 2, 3, 3]
    lam = np.linspace(1.05, 1.95, len(y))
    mult = [1 + 2 * t / c, 1 + 3 * t / c + sigma, 1 + 4 * t / c + sigma,
            1 + 5 * t / c + sigma]
    bc = make_bc(kappa=kappa, mean=mu, std=sigma, total=c, transformed=y)
    for mode, arg in (("power", lam**kappa), ("boxcox", y)):
        g = filter_response(decomposition(lam), bc, t, mode)
        expected = [math.exp(-a * mult[k]) for a, k in zip(arg, case)]
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=0)


def fitted_filter(seed=13, t=0.5, max_nodes=60, exponent_mode="power"):
    lap = laplacian_for(random_bipartite(seed, max_nodes=max_nodes))
    dec = eigensolve(lap, q=lap.n)
    bc = boxcox_fit(dec.shifted_lambdas)
    return dec, bc, filter_response(dec, bc, t, exponent_mode)


def test_response_positive_and_monotone():
    for t in (0.0, 0.5, 2.0):
        dec, bc, filt = fitted_filter(t=t)
        assert (filt > 0).all()
        assert (np.diff(filt) <= 1e-15).all()  # attenuation grows with freq


def test_response_decreases_with_scale():
    dec, bc, f1 = fitted_filter(t=0.5)
    _, _, f2 = fitted_filter(t=1.0)
    assert (f2 < f1).all()


def test_underflowed_response_raises():
    dec, bc, _ = fitted_filter()
    with pytest.raises(NumericalError, match="strictly positive"):
        filter_response(dec, bc, 1e300)


# ------------------------------------------------------------------ wavelets


def test_wavelet_t0_two_node_oracle():
    lap = laplacian_for(interaction_set_from_pairs(1, 1, [(0, 0)]))
    dec = eigensolve(lap, q=2)
    bc = boxcox_fit(dec.shifted_lambdas)
    pair = build_wavelet_pair(dec, bc, t=0.0, drop_threshold=0.0)
    g = filter_response(dec, bc, 0.0)
    oracle = (dec.phi * g) @ dec.phi.T
    np.testing.assert_allclose(pair.psi.toarray(), oracle, atol=1e-12)
    assert np.array_equal(pair.psi.toarray(), pair.psi.toarray().T)


def test_wavelet_infinite_threshold_drops_everything():
    lap = laplacian_for(interaction_set_from_pairs(1, 1, [(0, 0)]))
    dec = eigensolve(lap, q=2)
    bc = boxcox_fit(dec.shifted_lambdas)
    pair = build_wavelet_pair(dec, bc, t=0.5, drop_threshold=np.inf)
    assert pair.psi.nnz == 0
    assert pair.psi_inv.nnz == 0


def test_wavelet_full_spectrum_product_is_identity():
    lap = laplacian_for(random_bipartite(19, max_nodes=80))
    dec = eigensolve(lap, q=lap.n)
    bc = boxcox_fit(dec.shifted_lambdas)
    pair = build_wavelet_pair(dec, bc, t=0.8, drop_threshold=0.0)
    prod = pair.psi.toarray() @ pair.psi_inv.toarray()
    assert np.abs(prod - np.eye(lap.n)).max() <= 1e-5


def test_wavelet_truncated_product_is_projector():
    lap = laplacian_for(random_bipartite(21, max_nodes=80))
    q = lap.n // 3
    dec = eigensolve(lap, q=q)
    bc = boxcox_fit(dec.shifted_lambdas)
    pair = build_wavelet_pair(dec, bc, t=0.8, drop_threshold=0.0)
    prod = pair.psi.toarray() @ pair.psi_inv.toarray()
    proj = dec.phi @ dec.phi.T
    assert np.abs(prod - proj).max() <= 1e-5


def test_sparsification_stability():
    lap = laplacian_for(random_bipartite(29, max_nodes=80))
    dec = eigensolve(lap, q=lap.n)
    bc = boxcox_fit(dec.shifted_lambdas)
    dense = build_wavelet_pair(dec, bc, t=0.5, drop_threshold=0.0)
    sparse = build_wavelet_pair(dec, bc, t=0.5, drop_threshold=1e-7)
    diff = np.abs(dense.psi.toarray() - sparse.psi.toarray()).max()
    assert diff <= 1e-7
    assert sparse.psi.nnz <= dense.psi.nnz


# --------------------------------------------------------------------- cache


def test_spectral_cache_roundtrip(tmp_path):
    data = random_bipartite(31, max_nodes=50)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=lap.n)
    bc = boxcox_fit(dec.shifted_lambdas)
    h = dataset_hash(data)
    p = tmp_path / "spec.bundle"
    save_spectral_cache(p, dec, bc, h, eig_tol=1e-9, eig_seed=0)
    dec2, bc2, meta = load_spectral_cache(p, expected_hash=h)
    assert np.array_equal(dec.phi, dec2.phi)
    assert np.array_equal(dec.lambdas, dec2.lambdas)
    assert np.array_equal(dec.shifted_lambdas, dec2.shifted_lambdas)
    assert bc2.kappa == bc.kappa and bc2.total == bc.total
    assert meta["q"] == dec.q
    assert meta["eig_tol"] == 1e-9 and meta["eig_seed"] == 0


def test_spectral_cache_hash_mismatch(tmp_path):
    data = random_bipartite(31, max_nodes=50)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=4)
    bc = boxcox_fit(dec.shifted_lambdas)
    p = tmp_path / "spec.bundle"
    save_spectral_cache(p, dec, bc, "a" * 64, eig_tol=1e-9, eig_seed=0)
    with pytest.raises(DataError, match="dataset"):
        load_spectral_cache(p, expected_hash="b" * 64)


def test_spectral_cache_bytes_deterministic(tmp_path):
    data = random_bipartite(37, max_nodes=40)
    lap = laplacian_for(data)
    dec = eigensolve(lap, q=6)
    bc = boxcox_fit(dec.shifted_lambdas)
    p1, p2 = tmp_path / "a.bundle", tmp_path / "b.bundle"
    save_spectral_cache(p1, dec, bc, "c" * 64, eig_tol=1e-9, eig_seed=0)
    save_spectral_cache(p2, dec, bc, "c" * 64, eig_tol=1e-9, eig_seed=0)
    assert p1.read_bytes() == p2.read_bytes()
