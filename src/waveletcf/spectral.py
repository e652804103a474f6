"""Truncated eigendecomposition, variance-stabilized filter, wavelet pair.

The low spectrum of the bipartite Laplacian is a truncated SVD of its
user-item block, or a dense diagonalization for large q. Eigenvalue variance
is stabilized by a power transform fitted by maximum likelihood; the fitted
statistics parameterize an adaptive low-pass transfer function whose
response defines the wavelet operator pair.
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import bundles
from .config import ModelConfig
from .errors import ConfigError, DataError, NumericalError
from .graph import BipartiteLaplacian, SparseSymMatrix

SPECTRAL_CACHE_VERSION = 3
KAPPA_BOUNDS = (-5.0, 5.0)  # power-transform exponent search range
KAPPA_TOL = 1e-6  # absolute tolerance of the fitted exponent


def default_q(n: int) -> int:
    """Default retained-eigenpair count: full spectrum for small graphs,
    2% of nodes (at least 64) for large ones."""
    return min(n, max(64, math.ceil(0.02 * n)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Q smallest eigenpairs of the normalized Laplacian: eigenvalues
    `lambdas` and the N x Q eigenvector block `phi`."""

    lambdas: np.ndarray
    phi: np.ndarray

    @property
    def q(self) -> int:
        return self.phi.shape[1]

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def shifted_lambdas(self) -> np.ndarray:
        """1 + lambda, guaranteed positive, which the power transform and
        the propagation rule both consume."""
        return 1.0 + self.lambdas

    @functools.cached_property
    def boxcox(self) -> "BoxCoxResult":
        """The power transform fitted to `shifted_lambdas`, fitted once."""
        return boxcox_fit(self.shifted_lambdas)

    @functools.cached_property
    def fingerprint(self) -> str:
        """sha256 of the eigenvalues' and eigenvectors' bytes, which names
        the eigenbasis a trained model belongs to."""
        digest = hashlib.sha256(np.ascontiguousarray(self.lambdas))
        digest.update(np.ascontiguousarray(self.phi))
        return digest.hexdigest()


@dataclass(frozen=True)
class BoxCoxResult:
    """Fitted power-transform exponent and summary statistics.

    `values` holds the shifted eigenvalues the fit was made on and
    `transformed` holds (lam^kappa - 1)/kappa (log at kappa = 0) for each
    shifted eigenvalue; `std` uses divisor Q-1; `total` is the sum c used in
    the transfer function's scale normalization; an all-equal input
    sample has kappa 1 and std 0. `at_bound` flags a kappa within
    `KAPPA_TOL` of a search bound.
    """

    kappa: float
    values: np.ndarray
    transformed: np.ndarray
    mean: float
    std: float
    total: float
    at_bound: bool = False


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
    from a vector drawn from `seed`, gives the top (sigma^2, v) of the Gram
    of R~ on its smaller side with the components deflated; u = R~ v / sigma.
    Otherwise, or when those reach sigma ~ 0 (R of rank below q), L is
    diagonalized densely: O(N^2) memory, O(N^3) time.

    Raises NumericalError (with per-pair residual norms in `details`) if
    any pair has ||L x - lambda x|| above `tol`.
    """
    # imported here so that commands which never solve skip its slow import
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, m, k = lap.n, lap.num_users, lap.num_items
    if not 1 <= q <= n:
        raise ConfigError(f"q must lie in [1, {n}], got {q}")
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
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
            # ARPACK runs on the smaller side's Gram. A component's users and
            # items hold equal degree mass, so sqrt(2) times either half of
            # its null vector is a unit singular vector: deflated from R~,
            # it leaves the Gram as x -> R~^T R~ x - d d^T x.
            sides = [slice(0, m), slice(m, n)]
            small, big = sides if m < k else sides[::-1]
            r, rt = -mat[big, small], -mat[small, big]
            d = null[small] * math.sqrt(2.0)
            gram = LinearOperator(
                (len(d),) * 2, lambda x: rt @ (r @ x) - d @ (d.T @ x), dtype=float
            )
            v0 = np.random.default_rng(seed).standard_normal(min(m, k))
            try:
                # ||L x - lambda x|| = ||G v - sigma^2 v|| / (sigma sqrt(2)) is at
                # most ARPACK's relative tolerance, floored at machine precision
                gram_tol = max(tol / 10, np.finfo(float).eps)
                sq, v = eigsh(gram, k=q - c, v0=v0, tol=gram_tol)
            except ArpackNoConvergence as exc:
                raise NumericalError(f"truncated eigensolve failed: {exc}") from exc
            order = np.argsort(-sq, kind="stable")
            sigma, v = np.sqrt(np.maximum(sq[order], 0.0)), v[:, order]
            # sigma <= sqrt(tol) (R of rank below q): the pairs are accurate only
            # to ~1e-16 / sigma and may be deflated directions; solve densely
            if sigma.min() > math.sqrt(tol):
                pairs = np.empty((n, q - c))
                pairs[small], pairs[big] = v, (r @ v) / sigma
                theta = np.concatenate([np.zeros(c), 1.0 - sigma])
                X = np.hstack([null, pairs / math.sqrt(2.0)])
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
    return SpectralDecomposition(lambdas=lambdas, phi=phi)


def boxcox_transform(values: np.ndarray, kappa: float) -> np.ndarray:
    """Power transform (v^kappa - 1)/kappa, log branch at kappa = 0."""
    values = np.asarray(values, dtype=np.float64)
    if (values <= 0).any():
        raise NumericalError("power transform requires strictly positive inputs")
    if kappa == 0.0:
        return np.log(values)
    return (np.power(values, kappa) - 1.0) / kappa


def _loglik(values: np.ndarray, logs: np.ndarray, kappas) -> np.ndarray:
    """Profile log-likelihood of the power transform of `values` (with
    `logs` = log(values)) at each exponent of `kappas`, one array pass:
    row i of the transform is taken at kappas[i]."""
    kappas = np.asarray(kappas, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (np.power(values, kappas[:, None]) - 1.0) / kappas[:, None]
        y[kappas == 0] = logs
        var = y.var(axis=1)
        lls = np.where(var > 0, -0.5 * len(values) * np.log(var), -np.inf)
    return lls + (kappas - 1.0) * logs.sum()


def boxcox_fit(shifted_lambdas: np.ndarray) -> BoxCoxResult:
    """Fit the power-transform exponent by maximum likelihood.

    Coarse grid over `KAPPA_BOUNDS` followed by golden-section refinement
    to absolute tolerance `KAPPA_TOL` in kappa, both through `_loglik`.
    All-equal input is degenerate: its likelihood is flat, so kappa is
    defined as 1, its std is 0 and it is never at a bound.
    """
    values = np.asarray(shifted_lambdas, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise NumericalError("power-transform fit needs at least 2 values")
    if (values <= 0).any():
        raise NumericalError("power-transform fit requires positive inputs")
    degenerate = bool(np.all(values == values[0]))
    if degenerate:
        kappa = 1.0
    else:
        logs = np.log(values)
        grid = np.linspace(*KAPPA_BOUNDS, 1001)
        best = int(np.argmax(_loglik(values, logs, grid)))
        a = grid[max(0, best - 1)]
        b = grid[min(len(grid) - 1, best + 1)]

        inv_phi = (math.sqrt(5) - 1) / 2
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = _loglik(values, logs, [c, d])
        while b - a > KAPPA_TOL:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                (fc,) = _loglik(values, logs, [c])
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                (fd,) = _loglik(values, logs, [d])
        kappa = (a + b) / 2

    y = boxcox_transform(values, kappa)
    lo, hi = KAPPA_BOUNDS
    return BoxCoxResult(
        kappa=float(kappa),
        values=values,
        transformed=y,
        mean=float(y.mean()),
        std=0.0 if degenerate else float(y.std(ddof=1)),
        total=float(y.sum()),
        at_bound=not degenerate and min(kappa - lo, hi - kappa) <= KAPPA_TOL,
    )


def filter_response(bc: BoxCoxResult, config: ModelConfig) -> np.ndarray:
    """Adaptive low-pass response g_t of `config` at every retained eigenvalue.

    g = exp(-arg * mult), as the README's "Filter" section states: the
    case of each transformed eigenvalue against the sample mean and one or
    two standard deviations picks `mult`; `arg` is lam^kappa ("power") or
    the transformed value ("boxcox").

    Raises NumericalError if any response underflows to zero or is NaN:
    the gates and the inverse wavelet response both need g > 0.
    """
    if bc.total <= 0:
        raise NumericalError(
            "transfer function undefined: transformed eigenvalue sum is not positive"
        )
    mu, sigma, c = bc.mean, bc.std, bc.total
    y = bc.transformed
    # boundary points belong to the higher (more attenuating) case
    case = sum(y >= mu + k * sigma for k in (0.0, 1.0, 2.0))
    mult = 1.0 + (2.0 + case) * config.t / c + sigma * (case > 0)
    arg = bc.values**bc.kappa if config.exponent_mode == "power" else y
    resp = np.exp(-arg * mult)
    if not (resp > 0).all():  # NaN included
        raise NumericalError("filter response must be strictly positive")
    return resp


def _materialize(phi: np.ndarray, diag: np.ndarray, drop_threshold: float):
    import scipy.sparse as sp

    dense = (phi * diag) @ phi.T
    dense = (dense + dense.T) / 2
    if drop_threshold > 0:
        dense[np.abs(dense) < drop_threshold] = 0.0
    return SparseSymMatrix(sp.csr_matrix(dense))


def build_wavelet_pair(
    decomp: SpectralDecomposition,
    config: ModelConfig,
    drop_threshold: float = 1e-7,
) -> WaveletPair:
    """Assemble the sparsified wavelet operator pair.

    psi = Phi diag(g) Phi^T for the filter response g of `config`; psi_inv
    uses the reciprocal response 1/g, so psi @ psi_inv equals the projector
    Phi Phi^T (the identity when the spectrum is complete). Entries smaller
    than `drop_threshold` in magnitude are dropped after assembly.
    """
    if drop_threshold < 0:
        raise ConfigError(f"drop_threshold must be >= 0, got {drop_threshold}")
    g = filter_response(decomp.boxcox, config)
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
    dataset_hash: str,
    eig_tol: float,
    eig_seed: int,
) -> None:
    """Persist the eigenpairs, keyed on every input they depend on: the
    training split's hash and the eigensolver's tolerance and seed (q is
    phi's width)."""
    meta = {
        "dataset_hash": dataset_hash,
        "eig_tol": float(eig_tol),
        "eig_seed": int(eig_seed),
    }
    arrays = {"lambdas": decomp.lambdas, "phi": decomp.phi}
    bundles.save_artifact(path, "spectral-cache", SPECTRAL_CACHE_VERSION, meta, arrays)


def load_spectral_cache(path, expected_hash: str = None):
    """Load a spectral cache; refuses a mismatched dataset hash and stored
    values that no solve could have produced. The power transform is
    refitted from the stored eigenvalues, bit for bit the fit of the solve
    that wrote them; a `kappa` key of an older cache is ignored.

    Returns (decomp, decomp.boxcox, meta).
    """
    meta, arrays = bundles.load_artifact(
        path, "spectral-cache", SPECTRAL_CACHE_VERSION, expected_hash
    )
    lambdas, phi = arrays["lambdas"], arrays["phi"]
    if phi.ndim != 2 or phi.shape[1] < 2:
        raise DataError(f"{path}: 'phi' must be 2-D with >= 2 columns, got {phi.shape}")
    if lambdas.shape != (phi.shape[1],) or not ((lambdas >= 0) & (lambdas <= 2)).all():
        raise DataError(f"{path}: 'lambdas' must hold {phi.shape[1]} values in [0, 2]")
    decomp = SpectralDecomposition(lambdas=lambdas, phi=phi)
    return decomp, decomp.boxcox, meta
