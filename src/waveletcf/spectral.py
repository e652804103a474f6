"""Truncated eigendecomposition, variance-stabilized filter, wavelet pair.

The eigensolver is a Lanczos iteration with full reorthogonalization and
Rayleigh-Ritz extraction, using only matrix-vector products against the
Laplacian. Eigenvalue variance is stabilized by a power transform fitted by
maximum likelihood; the fitted statistics parameterize an adaptive low-pass
transfer function whose response defines the wavelet operator pair.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bundles
from .errors import ConfigError, DataError, NumericalError
from .graph import BipartiteLaplacian, SparseSymMatrix

EXPONENT_MODES = ("power", "boxcox")

SPECTRAL_CACHE_VERSION = 2


def default_q(n: int) -> int:
    """Default retained-eigenpair count: full spectrum for small graphs,
    2% of nodes (at least 64) for large ones."""
    return min(n, max(64, math.ceil(0.02 * n)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Q smallest eigenpairs of the normalized Laplacian.

    `shifted_lambdas` are 1 + lambda, guaranteed positive, which the power
    transform and the propagation rule both consume.
    """

    q: int
    lambdas: np.ndarray
    shifted_lambdas: np.ndarray
    phi: np.ndarray

    @property
    def n(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class BoxCoxResult:
    """Fitted power-transform exponent and summary statistics.

    `transformed` holds (lam^kappa - 1)/kappa (log at kappa = 0) for each
    shifted eigenvalue; `std` uses divisor Q-1; `total` is the sum c used in
    the transfer function's scale normalization. `degenerate` flags an
    all-equal input sample, where kappa is defined as 1.
    """

    kappa: float
    transformed: np.ndarray
    mean: float
    std: float
    total: float
    degenerate: bool = False


@dataclass(frozen=True)
class AdaptiveFilter:
    """Evaluated frequency response g_t at the retained eigenvalues."""

    t: float
    response: np.ndarray


@dataclass(frozen=True)
class WaveletPair:
    """Sparsified wavelet operator and its inverse-response partner.

    Both are symmetric N x N matrices Phi diag(g) Phi^T; `psi_inv` uses the
    reciprocal response so the product acts as identity on the retained
    eigenspace. Entries below `drop_threshold` in magnitude are removed.
    Propagation never builds the pair; it is the dense reference that
    tests check the eigenbasis path against.
    """

    psi: SparseSymMatrix
    psi_inv: SparseSymMatrix
    drop_threshold: float
    response: np.ndarray
    inv_response: np.ndarray


def eigensolve(
    lap: BipartiteLaplacian, q: int, tol: float = 1e-9, seed: int = 0
) -> SpectralDecomposition:
    """Compute the q smallest eigenpairs of the Laplacian.

    Lanczos iteration with full reorthogonalization against the accumulated
    basis; on breakdown (invariant subspace exhausted) the basis is extended
    with a fresh random direction, which also handles disconnected graphs
    and degenerate eigenspaces. Ritz pairs are extracted by projecting onto
    the basis, and convergence requires the residual norm of each of the q
    smallest pairs to be at most `tol`. Deterministic for a fixed seed.

    Raises NumericalError (carrying per-pair residual norms) if residuals
    still exceed `tol` once the basis spans the whole space.
    """
    n = lap.n
    if not 1 <= q <= n:
        raise ConfigError(f"q must lie in [1, {n}], got {q}")
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    op = lap.lap
    rng = np.random.default_rng(seed)

    Vbuf = np.empty((n, 0))
    Ubuf = np.empty((n, 0))
    count = 0

    def grow(capacity):
        nonlocal Vbuf, Ubuf
        if Vbuf.shape[1] < capacity:
            v2 = np.empty((n, capacity))
            v2[:, :count] = Vbuf[:, :count]
            u2 = np.empty((n, capacity))
            u2[:, :count] = Ubuf[:, :count]
            Vbuf, Ubuf = v2, u2

    def reorth(w):
        # two passes keep the basis orthonormal to machine precision
        basis = Vbuf[:, :count]
        w = w - basis @ (basis.T @ w)
        w -= basis @ (basis.T @ w)
        return w

    def fresh_direction():
        for _ in range(50):
            w = reorth(rng.standard_normal(n))
            norm = np.linalg.norm(w)
            if norm > 1e-8:
                return w / norm
        raise NumericalError("could not generate a new orthogonal direction")

    def append(v):
        nonlocal count
        Vbuf[:, count] = v
        Ubuf[:, count] = op.matvec(v)
        count += 1

    def extend_to(m_target):
        grow(m_target)
        if count == 0:
            append(fresh_direction())
        while count < m_target:
            w = reorth(Ubuf[:, count - 1].copy())
            norm = np.linalg.norm(w)
            if norm < 1e-10:
                append(fresh_direction())  # invariant subspace exhausted
            else:
                append(w / norm)

    m = n if q > n // 2 else min(n, max(2 * q + 10, 40))
    while True:
        extend_to(m)
        V = Vbuf[:, :count]
        U = Ubuf[:, :count]
        T = V.T @ U
        T = (T + T.T) / 2
        theta, S = np.linalg.eigh(T)
        X = V @ S[:, :q]
        AX = U @ S[:, :q]
        residuals = np.linalg.norm(AX - X * theta[:q], axis=0)
        if residuals.max() <= tol:
            break
        if m >= n:
            raise NumericalError(
                f"eigensolver did not reach tol={tol} with a full basis",
                details={"residual_norms": residuals.tolist()},
            )
        m = min(n, int(m * 1.5) + 10)

    lambdas = np.clip(theta[:q], 0.0, 2.0)
    # deterministic sign: largest-magnitude entry of each vector positive
    anchor = np.argmax(np.abs(X), axis=0)
    signs = np.sign(X[anchor, np.arange(q)])
    signs[signs == 0] = 1.0
    phi = X * signs
    return SpectralDecomposition(
        q=q,
        lambdas=lambdas,
        shifted_lambdas=1.0 + lambdas,
        phi=phi,
    )


def boxcox_transform(values: np.ndarray, kappa: float) -> np.ndarray:
    """Power transform (v^kappa - 1)/kappa, log branch at kappa = 0."""
    values = np.asarray(values, dtype=np.float64)
    if (values <= 0).any():
        raise NumericalError("power transform requires strictly positive inputs")
    if kappa == 0.0:
        return np.log(values)
    return (np.power(values, kappa) - 1.0) / kappa


def _boxcox_loglik(values: np.ndarray, log_values: np.ndarray, kappa: float) -> float:
    y = boxcox_transform(values, kappa)
    var = y.var()
    if var <= 0:
        return -np.inf
    return -0.5 * len(values) * math.log(var) + (kappa - 1.0) * log_values.sum()


def boxcox_fit(
    shifted_lambdas: np.ndarray, tol: float = 1e-6, bounds=(-5.0, 5.0)
) -> BoxCoxResult:
    """Fit the power-transform exponent by maximum likelihood.

    Coarse grid over `bounds` followed by golden-section refinement to
    absolute tolerance `tol` in kappa. All-equal input is degenerate: the
    likelihood is flat, kappa is defined as 1 and flagged.
    """
    values = np.asarray(shifted_lambdas, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise NumericalError("power-transform fit needs at least 2 values")
    if (values <= 0).any():
        raise NumericalError("power-transform fit requires positive inputs")

    def finish(kappa, degenerate=False):
        y = boxcox_transform(values, kappa)
        return BoxCoxResult(
            kappa=float(kappa),
            transformed=y,
            mean=float(y.mean()),
            std=0.0 if degenerate else float(y.std(ddof=1)),
            total=float(y.sum()),
            degenerate=degenerate,
        )

    if np.all(values == values[0]):
        return finish(1.0, degenerate=True)

    logs = np.log(values)
    lo, hi = bounds
    grid = np.linspace(lo, hi, 1001)
    lls = np.array([_boxcox_loglik(values, logs, k) for k in grid])
    best = int(np.argmax(lls))
    a = grid[max(0, best - 1)]
    b = grid[min(len(grid) - 1, best + 1)]

    inv_phi = (math.sqrt(5) - 1) / 2
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _boxcox_loglik(values, logs, c)
    fd = _boxcox_loglik(values, logs, d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _boxcox_loglik(values, logs, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _boxcox_loglik(values, logs, d)
    return finish((a + b) / 2)


def _case_multiplier(bc: BoxCoxResult, transformed_value: float, t: float) -> float:
    if bc.total <= 0:
        raise NumericalError(
            "transfer function undefined: transformed eigenvalue sum is not positive"
        )
    if t < 0:
        raise ConfigError(f"scale t must be non-negative, got {t}")
    mu, sigma, c = bc.mean, bc.std, bc.total
    # boundary points belong to the higher (more attenuating) case
    if transformed_value < mu:
        return 1.0 + 2.0 * t / c
    if transformed_value < mu + sigma:
        return 1.0 + 3.0 * t / c + sigma
    if transformed_value < mu + 2.0 * sigma:
        return 1.0 + 4.0 * t / c + sigma
    return 1.0 + 5.0 * t / c + sigma


def transfer(
    bc: BoxCoxResult,
    shifted_lambda: float,
    transformed_value: float,
    t: float,
    exponent_mode: str = "power",
) -> float:
    """Adaptive low-pass response at one eigenvalue.

    The response is exp(-arg * mult): `mult` depends on where the
    transformed eigenvalue falls relative to the sample mean and one or two
    standard deviations, `arg` is the plain power shifted_lambda^kappa in
    "power" mode or the transformed (variance-stabilized) value in "boxcox"
    mode.
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ConfigError(f"exponent_mode must be one of {EXPONENT_MODES}")
    mult = _case_multiplier(bc, transformed_value, t)
    if exponent_mode == "power":
        arg = shifted_lambda**bc.kappa
    else:
        arg = transformed_value
    return float(math.exp(-arg * mult))


def filter_response(
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    t: float,
    exponent_mode: str = "power",
) -> AdaptiveFilter:
    """Evaluate the transfer function at every retained eigenvalue.

    Raises NumericalError if any response underflows to zero: the gates
    and the inverse wavelet response both need g > 0.
    """
    resp = np.array(
        [
            transfer(bc, lam, y, t, exponent_mode)
            for lam, y in zip(decomp.shifted_lambdas, bc.transformed)
        ]
    )
    if (resp <= 0).any():
        raise NumericalError("filter response must be strictly positive")
    return AdaptiveFilter(t=float(t), response=resp)


def _materialize(phi: np.ndarray, diag: np.ndarray, drop_threshold: float):
    dense = (phi * diag) @ phi.T
    dense = (dense + dense.T) / 2
    if drop_threshold > 0:
        dense[np.abs(dense) < drop_threshold] = 0.0
    return SparseSymMatrix(sp.csr_matrix(dense))


def build_wavelet_pair(
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    t: float,
    drop_threshold: float = 1e-7,
    exponent_mode: str = "power",
) -> WaveletPair:
    """Assemble the sparsified wavelet operator pair.

    psi = Phi diag(g) Phi^T for the filter response g at scale t; psi_inv
    uses the reciprocal response 1/g, so psi @ psi_inv equals the projector
    Phi Phi^T (the identity when the spectrum is complete). Entries smaller
    than `drop_threshold` in magnitude are dropped after assembly.
    """
    if drop_threshold < 0:
        raise ConfigError(f"drop_threshold must be >= 0, got {drop_threshold}")
    g = filter_response(decomp, bc, t, exponent_mode).response
    return WaveletPair(
        psi=_materialize(decomp.phi, g, drop_threshold),
        psi_inv=_materialize(decomp.phi, 1.0 / g, drop_threshold),
        drop_threshold=float(drop_threshold),
        response=g,
        inv_response=1.0 / g,
    )


def save_spectral_cache(
    path,
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    dataset_hash: str,
    eig_tol: float,
    eig_seed: int,
) -> None:
    """Persist the decomposition and fitted power transform.

    The metadata records every input they depend on: the training split's
    hash, q, and the eigensolver's tolerance and seed.
    """
    meta = {
        "kind": "spectral-cache",
        "version": SPECTRAL_CACHE_VERSION,
        "dataset_hash": dataset_hash,
        "q": int(decomp.q),
        "eig_tol": float(eig_tol),
        "eig_seed": int(eig_seed),
        "kappa": bc.kappa,
        "mean": bc.mean,
        "std": bc.std,
        "total": bc.total,
        "degenerate": bc.degenerate,
    }
    arrays = {
        "lambdas": decomp.lambdas,
        "phi": decomp.phi,
        "transformed": bc.transformed,
    }
    bundles.save_bundle(path, meta, arrays)


def load_spectral_cache(path, expected_hash: str = None):
    """Load a spectral cache; refuses a mismatched dataset hash.

    Returns (decomp, bc, meta).
    """
    meta, arrays = bundles.load_bundle(path)
    if meta.get("kind") != "spectral-cache":
        raise DataError(f"{path}: not a spectral cache")
    if meta.get("version") != SPECTRAL_CACHE_VERSION:
        raise DataError(
            f"{path}: cache version {meta.get('version')} unsupported "
            f"(expected {SPECTRAL_CACHE_VERSION})"
        )
    if expected_hash is not None and meta["dataset_hash"] != expected_hash:
        raise DataError(
            f"{path}: cache was built for dataset {meta['dataset_hash'][:12]}..., "
            f"not {expected_hash[:12]}..."
        )
    lambdas = arrays["lambdas"]
    decomp = SpectralDecomposition(
        q=meta["q"],
        lambdas=lambdas,
        shifted_lambdas=1.0 + lambdas,
        phi=arrays["phi"],
    )
    bc = BoxCoxResult(
        kappa=meta["kappa"],
        transformed=arrays["transformed"],
        mean=meta["mean"],
        std=meta["std"],
        total=meta["total"],
        degenerate=meta["degenerate"],
    )
    return decomp, bc, meta
