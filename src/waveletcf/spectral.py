"""Truncated eigendecomposition, variance-stabilized filter, wavelet pair.

The low spectrum of the bipartite Laplacian is a truncated SVD of its
user-item block, or a dense diagonalization for large q. Eigenvalue variance
is stabilized by a power transform fitted by maximum likelihood; the fitted
statistics parameterize an adaptive low-pass transfer function whose
response defines the wavelet operator pair.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bundles
from .config import EXPONENT_MODES
from .errors import ConfigError, NumericalError
from .graph import BipartiteLaplacian, SparseSymMatrix

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

    Each singular triplet (u, sigma, v) of R~ = D_u^-1/2 R D_i^-1/2, the
    user-item block of I - L, gives the eigenpair (1 - sigma, [u; v]/sqrt(2)).
    When q < min(users, items), each connected component gives one exact
    lambda = 0 pair (its normalized sqrt-degree vector) and ARPACK, started
    from a vector drawn from `seed`, gives the top triplets of R~ with the
    components deflated. Otherwise, or when those reach sigma ~ 0 (R of
    rank below q), L is diagonalized densely: O(N^2) memory, O(N^3) time.

    Raises NumericalError (with per-pair residual norms in `details`) if
    any pair has ||L x - lambda x|| above `tol`.
    """
    # imported here so that commands which never solve skip its slow import
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackNoConvergence, svds, aslinearoperator as linop

    n, m, k = lap.n, lap.num_users, lap.num_items
    if not 1 <= q <= n:
        raise ConfigError(f"q must lie in [1, {n}], got {q}")
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    mat = lap.lap.mat

    theta = None
    if q < min(m, k):
        c, labels = connected_components(mat, directed=False)
        null = np.zeros((n, c))
        null[np.arange(n), labels] = np.sqrt(lap.degree)
        null /= np.linalg.norm(null, axis=0)
        if c >= q:
            theta, X = np.zeros(q), null[:, :q]
        else:
            # a component's users and items hold equal degree mass, so sqrt(2)
            # times either half of its null vector is a unit singular vector
            uc, vc = null[:m] * math.sqrt(2.0), null[m:] * math.sqrt(2.0)
            op = linop(-mat[:m, m:]) - linop(uc) @ linop(vc.T)
            v0 = np.random.default_rng(seed).standard_normal(min(m, k))
            try:
                u, sigma, vt = svds(op, k=q - c, v0=v0)
            except ArpackNoConvergence as exc:
                raise NumericalError(f"truncated SVD failed: {exc}") from exc
            # sigma <= sqrt(tol) (R of rank below q): the pairs are accurate only
            # to ~1e-16 / sigma and may be deflated directions; solve densely
            if sigma.min() > math.sqrt(tol):
                order = np.argsort(-sigma, kind="stable")
                pairs = np.vstack([u[:, order], vt[order].T]) / math.sqrt(2.0)
                theta = np.concatenate([np.zeros(c), 1.0 - sigma[order]])
                X = np.hstack([null, pairs])
    if theta is None:
        theta, S = np.linalg.eigh(mat.toarray())
        theta, X = theta[:q], S[:, :q]

    residuals = np.linalg.norm(mat @ X - X * theta, axis=0)
    if residuals.max() > tol:
        raise NumericalError(
            f"eigenpairs miss tol={tol} (largest residual {residuals.max():.3g})",
            details={"residual_norms": residuals.tolist()},
        )

    lambdas = np.clip(theta, 0.0, 2.0)
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


def filter_response(
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    t: float,
    exponent_mode: str = "power",
) -> np.ndarray:
    """Adaptive low-pass response g_t at every retained eigenvalue.

    g = exp(-arg * mult), as the README's "Filter" section states: the
    case of each transformed eigenvalue against the sample mean and one or
    two standard deviations picks `mult`; `arg` is lam^kappa ("power") or
    the transformed value ("boxcox").

    Raises NumericalError if any response underflows to zero: the gates
    and the inverse wavelet response both need g > 0.
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ConfigError(f"exponent_mode must be one of {EXPONENT_MODES}")
    if bc.total <= 0:
        raise NumericalError(
            "transfer function undefined: transformed eigenvalue sum is not positive"
        )
    if t < 0:
        raise ConfigError(f"scale t must be non-negative, got {t}")
    mu, sigma, c = bc.mean, bc.std, bc.total
    y = bc.transformed
    # boundary points belong to the higher (more attenuating) case
    case = sum(y >= mu + k * sigma for k in (0.0, 1.0, 2.0))
    mult = 1.0 + (2.0 + case) * t / c + sigma * (case > 0)
    arg = decomp.shifted_lambdas**bc.kappa if exponent_mode == "power" else y
    resp = np.exp(-arg * mult)
    if (resp <= 0).any():
        raise NumericalError("filter response must be strictly positive")
    return resp


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
    g = filter_response(decomp, bc, t, exponent_mode)
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
    bundles.save_artifact(path, "spectral-cache", SPECTRAL_CACHE_VERSION, meta, arrays)


def load_spectral_cache(path, expected_hash: str = None):
    """Load a spectral cache; refuses a mismatched dataset hash.

    Returns (decomp, bc, meta).
    """
    meta, arrays = bundles.load_artifact(
        path, "spectral-cache", SPECTRAL_CACHE_VERSION, expected_hash
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
