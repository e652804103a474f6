"""Layered embedding model: wavelet-filtered propagation and scoring.

Embeddings for all users and items are stacked into one (M+K) x P block
and pushed through L propagation layers. Each layer filters the block in
the retained eigenbasis with a learnable per-frequency gate, mixes
channels there with a dense weight matrix, and applies a logistic
nonlinearity back in node space. The final representation concatenates
every layer's output; a user-item score is the dot product of the
concatenated vectors.
"""

import functools
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import List

import numpy as np

from . import bundles
from .config import ModelConfig
from .errors import ConfigError, DataError
from .spectral import SpectralDecomposition, filter_response

CHECKPOINT_VERSION = 3
BLOCK = 1 << 15  # elements per pass of a blockwise elementwise loop


def row_blocks(rows: int, row_size: int) -> List[slice]:
    """Slices of about BLOCK elements' worth of `rows` rows of `row_size`."""
    step = max(1, BLOCK // max(1, row_size))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Logistic function, written into `out` (which may be `x`) when given.

    With e = exp(-|x|) <= 1 nothing overflows; max(e, x >= 0) / (1 + e) is
    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with no branch and
    at a fraction of the cost of picking the numerator with np.where. Its
    scratch stays in cache: it runs over `row_blocks`."""
    out = np.empty(np.shape(x)) if out is None else out
    for rows in row_blocks(len(x), math.prod(np.shape(x)[1:])):
        xs, o = x[rows], out[rows]
        pos = xs >= 0
        e = np.abs(xs)
        np.exp(np.negative(e, out=e), out=e)
        np.add(e, 1.0, out=o)
        np.divide(np.maximum(e, pos, out=e), o, out=o)
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

    def map(self, fn) -> "ModelParams":
        """A ModelParams of `fn` applied to each tensor."""
        return ModelParams(fn(self.x0), fn(self.y0),
                           [fn(wi) for wi in self.w], [fn(th) for th in self.theta])

    @classmethod
    def from_arrays(cls, arrays, shapes: dict, prefix: str = "") -> "ModelParams":
        """The tensors of `shapes` (see `param_shapes`) stored in the
        `arrays` of a loaded artifact, each behind `prefix`. One of another
        shape is a DataError naming the bundle, the tensor and both shapes."""
        ts = [arrays[prefix + name] for name in shapes]
        for (name, shape), t in zip(shapes.items(), ts):
            if t.shape != shape:
                raise DataError(f"{arrays.path}: '{prefix}{name}' has shape "
                                f"{t.shape}, expected {shape}")
        layers = (len(ts) - 2) // 2
        return cls(ts[0], ts[1], ts[2: 2 + layers], ts[2 + layers:])


def param_shapes(config: ModelConfig, num_users: int, num_items: int, q: int) -> dict:
    """{name: shape} of every model tensor, in `tensors()` order: x0 M x P,
    y0 K x P, each w P x P and each gate Q."""
    p = config.width
    shapes = {"x0": (num_users, p), "y0": (num_items, p)}
    shapes.update((f"w{i}", (p, p)) for i in range(config.layers))
    shapes.update((f"theta{i}", (q,)) for i in range(config.layers))
    return shapes


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

    def __init__(self, decomp: SpectralDecomposition, config: ModelConfig):
        self.phi = decomp.phi
        self.lam = decomp.shifted_lambdas
        self.g = filter_response(decomp.boxcox, config)

    def gate(self, theta: np.ndarray) -> np.ndarray:
        """Per-frequency gate h = sigma(g * theta)."""
        return sigmoid(self.g * theta)


@dataclass
class ForwardTrace:
    """Layer activations, layer-major: zs[l] is layer l's N x P block
    (zs[0] = initial embeddings, users in the first M rows). A row's final
    embedding concatenates its rows of every layer, in layer order."""

    zs: np.ndarray  # (L+1) x N x P
    coeffs: List[np.ndarray]  # L blocks Phi^T zs[l], each Q x P
    num_users: int  # M
    grad: np.ndarray  # N x P scratch of `train.backward`, filled only there

    def concat(self, rows) -> np.ndarray:
        """Concatenated embeddings of stacked row `rows` ((L+1)P) or of an
        index array (len x (L+1)P): row n of layer l is zs row l N + n."""
        layers, n, p = self.zs.shape
        at = (np.asarray(rows, dtype=np.intp)[..., None] + n * np.arange(layers)).ravel()
        return self.zs.reshape(-1, p)[at].reshape(*np.shape(rows), layers * p)

    @functools.cached_property
    def concat_items(self) -> np.ndarray:
        """Every item's concatenated embedding, built once per forward."""
        return self.concat(np.arange(self.num_users, self.zs.shape[1]))


def propagate_layer(
    z: np.ndarray, layer: int, params: ModelParams, oper: PropagationOperator, out=None
):
    """One propagation step; returns (activation, coeff), the activation
    written into `out` when given.

    sigmoid(Phi diag(d) Phi^T z W), d = lam * h, is computed as
    sigmoid(Phi ((d * c) W)) with c = Phi^T z: channels mix on Q rows."""
    w = params.w[layer]
    h = oper.gate(params.theta[layer])
    coeff = oper.phi.T @ z
    pre = np.matmul(oper.phi, ((oper.lam * h)[:, None] * coeff) @ w, out=out)
    return sigmoid(pre, out=pre), coeff


def forward(params: ModelParams, oper: PropagationOperator, out=None) -> ForwardTrace:
    """Run all L = len(params.w) layers from the initial embeddings into one
    (L+1) x N x P array; `out`, a trace of the same model, is overwritten
    when given."""
    layers = len(params.w)
    m, p = params.x0.shape
    if out is None:
        zs = np.empty((layers + 1, m + len(params.y0), p))
        out = ForwardTrace(zs, [None] * layers, m, np.empty(zs.shape[1:]))
    vars(out).pop("concat_items", None)
    np.concatenate([params.x0, params.y0], out=out.zs[0])
    for i in range(layers):
        out.coeffs[i] = propagate_layer(out.zs[i], i, params, oper, out=out.zs[i + 1])[1]
    return out


def score_user(trace: ForwardTrace, user) -> np.ndarray:
    """Item scores of one user index (K,) or of an index array (B, K);
    never builds the full score matrix."""
    return trace.concat(user) @ trace.concat_items.T


def save_checkpoint(
    path,
    config: ModelConfig,
    params: ModelParams,
    dataset_hash: str,
    basis: str,
    extra_meta: dict = None,
) -> None:
    """Persist config + parameters keyed by the dataset content hash and
    the `SpectralDecomposition.fingerprint` of the eigenbasis they were
    trained on."""
    meta = {
        "dataset_hash": dataset_hash,
        "basis": basis,
        "config": asdict(config),
        "num_w": len(params.w),
        **(extra_meta or {}),
    }
    bundles.save_artifact(
        path, "model-checkpoint", CHECKPOINT_VERSION, meta, dict(params.tensors())
    )


def load_checkpoint(
    path, num_users: int, num_items: int, q: int, expected_dataset_hash: str = None
):
    """Load the checkpoint of a model of M = `num_users`, K = `num_items`
    and Q = `q`; refuses one built for a different dataset, holding a
    config that fails validation or tensors of other shapes.

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
    shapes = param_shapes(config, num_users, num_items, q)
    return config, ModelParams.from_arrays(arrays, shapes), meta
