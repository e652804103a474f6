"""Layered embedding model: wavelet-filtered propagation and scoring.

Embeddings for all users and items are stacked into one (M+K) x P block
and pushed through L propagation layers. Each layer filters the block in
the retained eigenbasis with a learnable per-frequency gate, mixes
channels there with a dense weight matrix, and applies a logistic
nonlinearity back in node space. The final representation concatenates
every layer's output; a user-item score is the dot product of the
concatenated vectors.
"""

import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import List

import numpy as np

from . import bundles
from .config import ModelConfig
from .errors import ConfigError, DataError
from .spectral import BoxCoxResult, SpectralDecomposition, filter_response

CHECKPOINT_VERSION = 2


def sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Logistic function, written into `out` (which may be `x`) when given.

    With e = exp(-|x|) <= 1 nothing overflows; max(e, x >= 0) / (1 + e) is
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with no branch and
    at a fraction of the cost of picking the numerator with np.where."""
    pos = x >= 0
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    out = np.add(e, 1.0, out=out)
    return np.divide(np.maximum(e, pos, out=e), out, out=out)


@dataclass
class ModelParams:
    """Learnable tensors (initial embeddings, mixing weights, spectral
    gates), or the gradients of a loss with respect to them."""

    x0: np.ndarray  # M x P
    y0: np.ndarray  # K x P
    w: List[np.ndarray]  # L matrices, each P x P
    theta: List[np.ndarray]  # L gate vectors, each Q

    def tensors(self):
        """(name, array) pairs in a fixed order."""
        out = [("x0", self.x0), ("y0", self.y0)]
        out += [(f"w{i}", wi) for i, wi in enumerate(self.w)]
        out += [(f"theta{i}", th) for i, th in enumerate(self.theta)]
        return out

    def copy(self) -> "ModelParams":
        arrays = {name: t.copy() for name, t in self.tensors()}
        return ModelParams.from_arrays(arrays, len(self.w))

    @classmethod
    def from_arrays(cls, arrays, layers: int, prefix: str = "") -> "ModelParams":
        """Tensors of an L-layer model stored under their `tensors()` names,
        each behind `prefix`."""
        return cls(
            x0=arrays[f"{prefix}x0"],
            y0=arrays[f"{prefix}y0"],
            w=[arrays[f"{prefix}w{i}"] for i in range(layers)],
            theta=[arrays[f"{prefix}theta{i}"] for i in range(layers)],
        )


def init_params(
    config: ModelConfig, num_users: int, num_items: int, q: int
) -> ModelParams:
    """Draw initial parameters: N(0, 0.01^2) embeddings, Glorot-uniform
    mixing weights, all-ones gates. Deterministic for a fixed seed."""
    if config.width > min(num_users, num_items) / 2:
        warnings.warn(
            f"embedding width {config.width} exceeds half of "
            f"min(users, items) = {min(num_users, num_items)}; "
            "the model may be over-parameterized",
            stacklevel=2,
        )
    rng = np.random.default_rng(config.seed)
    p = config.width
    x0 = rng.normal(0.0, 0.01, (num_users, p))
    y0 = rng.normal(0.0, 0.01, (num_items, p))
    bound = math.sqrt(6.0 / (p + p))
    w = [rng.uniform(-bound, bound, (p, p)) for _ in range(config.layers)]
    theta = [np.ones(q) for _ in range(config.layers)]
    return ModelParams(x0=x0, y0=y0, w=w, theta=theta)


class PropagationOperator:
    """The fixed (non-learnable) spectral machinery of one layer.

    A layer's wavelet pair psi = Phi diag(g) Phi^T and psi^-1 = Phi
    diag(1/g) Phi^T multiply to the projector Phi Phi^T, so the pair
    cancels on the retained eigenspace and the layer applies
    Phi diag(lam * h) Phi^T exactly in the eigenbasis. The response g
    still sets the gate h = sigma(g * theta).
    """

    def __init__(
        self,
        decomp: SpectralDecomposition,
        bc: BoxCoxResult,
        t: float,
        exponent_mode: str = "power",
    ):
        self.phi = decomp.phi
        self.lam = decomp.shifted_lambdas
        self.n = decomp.n
        self.g = filter_response(decomp, bc, t, exponent_mode)

    def gate(self, theta: np.ndarray) -> np.ndarray:
        """Per-frequency gate h = sigma(g * theta)."""
        return sigmoid(self.g * theta)


@dataclass
class LayerCache:
    """Intermediates of one layer needed for reverse-mode gradients."""

    h: np.ndarray  # Q gate values
    coeff: np.ndarray  # Q x P eigenbasis coefficients of the layer input


@dataclass
class ForwardTrace:
    """Layer activations plus the concatenated final embeddings."""

    zs: List[np.ndarray]  # L+1 blocks of N x P (zs[0] = initial embeddings)
    caches: List[LayerCache]
    concat_users: np.ndarray  # M x (L+1)P
    concat_items: np.ndarray  # K x (L+1)P
    num_users: int  # M: users occupy the first M rows of each block


def propagate_layer(
    z: np.ndarray, layer: int, params: ModelParams, oper: PropagationOperator, out=None
):
    """One propagation step; returns (activation, cache), the activation
    written into `out` when given.

    sigmoid(Phi diag(d) Phi^T z W), d = lam * h, is computed as
    sigmoid(Phi ((d * c) W)) with c = Phi^T z: channels mix on Q rows."""
    if z.shape[0] != oper.n:
        raise DataError(f"input block has {z.shape[0]} rows, expected {oper.n}")
    w = params.w[layer]
    if z.shape[1] != w.shape[0]:
        raise DataError(
            f"input width {z.shape[1]} does not match weight shape {w.shape}"
        )
    h = oper.gate(params.theta[layer])
    coeff = oper.phi.T @ z
    pre = oper.phi @ (((oper.lam * h)[:, None] * coeff) @ w)
    return sigmoid(pre, out=out), LayerCache(h=h, coeff=coeff)


def forward(
    params: ModelParams, oper: PropagationOperator, config: ModelConfig
) -> ForwardTrace:
    """Run all layers from the initial embeddings, each layer writing its
    output into its own column block of one N x (L+1)P array."""
    m, p = params.x0.shape
    concat = np.empty((m + len(params.y0), (config.layers + 1) * p))
    zs = [concat[:, i * p: (i + 1) * p] for i in range(config.layers + 1)]
    np.concatenate([params.x0, params.y0], out=zs[0])
    caches = [
        propagate_layer(zs[i], i, params, oper, out=zs[i + 1])[1]
        for i in range(config.layers)
    ]
    return ForwardTrace(zs, caches, concat[:m], concat[m:], num_users=m)


def score_user(trace: ForwardTrace, user) -> np.ndarray:
    """Item scores of one user index (K,) or of an index array (B, K);
    never builds the full score matrix."""
    return trace.concat_users[user] @ trace.concat_items.T


def save_checkpoint(
    path,
    config: ModelConfig,
    params: ModelParams,
    dataset_hash: str,
    extra_meta: dict = None,
) -> None:
    """Persist config + parameters keyed by the dataset content hash."""
    meta = {
        "dataset_hash": dataset_hash,
        "config": asdict(config),
        "num_w": len(params.w),
        **(extra_meta or {}),
    }
    bundles.save_artifact(
        path, "model-checkpoint", CHECKPOINT_VERSION, meta, dict(params.tensors())
    )


def load_checkpoint(path, expected_dataset_hash: str = None):
    """Load a checkpoint; refuses one built for a different dataset or
    holding a config that fails validation.

    Returns (config, params, meta).
    """
    meta, arrays = bundles.load_artifact(
        path, "model-checkpoint", CHECKPOINT_VERSION, expected_dataset_hash
    )
    try:
        config = ModelConfig(
            **{f.name: meta["config"][f.name] for f in fields(ModelConfig)}
        )
    except (ConfigError, TypeError) as exc:
        raise DataError(f"{path}: invalid stored config ({exc})") from exc
    if meta["num_w"] != config.layers:
        raise DataError(
            f"{path}: checkpoint holds {meta['num_w']} layer(s) of weights "
            f"but its config says layers={config.layers}"
        )
    return config, ModelParams.from_arrays(arrays, config.layers), meta
