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
from dataclasses import asdict, dataclass, field, fields
from typing import List

import numpy as np

from . import bundles
from .config import ModelConfig
from .errors import DataError
from .spectral import BoxCoxResult, SpectralDecomposition, filter_response

CHECKPOINT_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        return ModelParams(
            x0=self.x0.copy(),
            y0=self.y0.copy(),
            w=[wi.copy() for wi in self.w],
            theta=[th.copy() for th in self.theta],
        )

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
        self.g = filter_response(decomp, bc, t, exponent_mode).response

    def gate(self, theta: np.ndarray) -> np.ndarray:
        """Per-frequency gate h = sigma(g * theta)."""
        return sigmoid(self.g * theta)

    def diag_factor(self, h: np.ndarray) -> np.ndarray:
        """Diagonal of the layer operator in the eigenbasis."""
        return self.lam * h


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
    num_users: int = field(default=0)


def propagate_layer(
    z: np.ndarray, layer: int, params: ModelParams, oper: PropagationOperator
):
    """One propagation step; returns (activation, cache).

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
    out = sigmoid(oper.phi @ ((oper.diag_factor(h)[:, None] * coeff) @ w))
    return out, LayerCache(h=h, coeff=coeff)


def forward(
    params: ModelParams, oper: PropagationOperator, config: ModelConfig
) -> ForwardTrace:
    """Run all layers from the initial embeddings and concatenate."""
    m = params.x0.shape[0]
    z = np.vstack([params.x0, params.y0])
    zs = [z]
    caches = []
    for layer in range(config.layers):
        z, cache = propagate_layer(z, layer, params, oper)
        zs.append(z)
        caches.append(cache)
    concat = np.hstack(zs)
    return ForwardTrace(
        zs=zs,
        caches=caches,
        concat_users=concat[:m],
        concat_items=concat[m:],
        num_users=m,
    )


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
        "kind": "model-checkpoint",
        "version": CHECKPOINT_VERSION,
        "dataset_hash": dataset_hash,
        "config": asdict(config),
        "num_w": len(params.w),
        "num_theta": len(params.theta),
    }
    if extra_meta:
        meta.update(extra_meta)
    bundles.save_bundle(path, meta, dict(params.tensors()))


def load_checkpoint(path, expected_dataset_hash: str = None):
    """Load a checkpoint; refuses one built for a different dataset.

    Returns (config, params, meta).
    """
    meta, arrays = bundles.load_bundle(path)
    if meta.get("kind") != "model-checkpoint":
        raise DataError(f"{path}: not a model checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: checkpoint version {meta.get('version')} unsupported"
        )
    if (
        expected_dataset_hash is not None
        and meta["dataset_hash"] != expected_dataset_hash
    ):
        raise DataError(
            f"{path}: checkpoint was trained on dataset "
            f"{meta['dataset_hash'][:12]}..., not {expected_dataset_hash[:12]}..."
        )
    config = ModelConfig(
        **{f.name: meta["config"][f.name] for f in fields(ModelConfig)}
    )
    if meta["num_w"] != config.layers:
        raise DataError(
            f"{path}: checkpoint holds {meta['num_w']} layer(s) of weights "
            f"but its config says layers={config.layers}"
        )
    return config, ModelParams.from_arrays(arrays, config.layers), meta
