"""Pairwise-ranking training: triple sampling, loss, gradients, Adam, fit.

Gradients are computed by hand-written reverse-mode differentiation through
the layered propagation (no autodiff dependency), which keeps the whole
pipeline in float64 and bitwise-reproducible under a fixed seed. Like the
forward pass, each layer's backward pass works on the Q eigenbasis
coefficients and touches N rows only to project in and out.
"""

import json
import time
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from . import bundles, ingest
from .config import ModelConfig, TrainConfig
from .errors import ConfigError, DataError, NumericalError
from .evaluate import evaluate
from .ingest import InteractionSet, SplitSpec, split
from .model import (
    ForwardTrace,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    score_user,
    sigmoid,
)
from .seeds import TRIPLES, VAL_SPLIT, child_seed
from .spectral import BoxCoxResult, SpectralDecomposition

TRAIN_STATE_VERSION = 3


def sample_triples(
    train: InteractionSet, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw (user, positive, negative) index triples.

    The (user, positive) pair is uniform over training pairs; the negative
    is uniform over the user's unobserved items by rejection sampling.
    Users whose positives cover the whole catalog cannot yield a negative
    and are skipped with a warning. Returns an int64 array of shape
    (count, 3), deterministic given the generator state.
    """
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    degrees = train.user_degrees()
    exhausted = np.flatnonzero(degrees >= train.num_items)
    pairs = train.pairs
    if exhausted.size:
        warnings.warn(
            f"{exhausted.size} user(s) interact with every item and are "
            "skipped during sampling",
            stacklevel=2,
        )
        pairs = pairs[~np.isin(pairs[:, 0], exhausted)]
        if len(pairs) == 0:
            raise DataError("no users with any unobserved item to sample")
    encoded = np.sort(pairs[:, 0].astype(np.int64) * train.num_items + pairs[:, 1])

    def is_positive(users, items):
        key = users * train.num_items + items
        idx = np.clip(np.searchsorted(encoded, key), 0, len(encoded) - 1)
        return encoded[idx] == key

    picks = rng.integers(0, len(pairs), count)
    out = np.empty((count, 3), dtype=np.int64)
    out[:, 0] = pairs[picks, 0]
    out[:, 1] = pairs[picks, 1]
    js = rng.integers(0, train.num_items, count)
    bad = is_positive(out[:, 0], js)
    while bad.any():
        js[bad] = rng.integers(0, train.num_items, int(bad.sum()))
        bad = is_positive(out[:, 0], js)
    out[:, 2] = js
    return out


def _margins(trace: ForwardTrace, batch: np.ndarray) -> np.ndarray:
    cu, ci = trace.concat_users, trace.concat_items
    return np.sum(cu[batch[:, 0]] * (ci[batch[:, 1]] - ci[batch[:, 2]]), axis=1)


def bpr_loss(trace: ForwardTrace, batch: np.ndarray, eta: float, margins=None) -> float:
    """Pairwise ranking loss with batch-restricted L2 regularization.

    Sum of softplus(-margin) over triples plus (eta/2) times the squared
    norms of the distinct batch users' and distinct positive items'
    concatenated embeddings. Overflow-safe via logaddexp. `margins` are
    the batch's score margins when already computed.
    """
    if len(batch) == 0:
        raise DataError("batch must be non-empty")
    z = _margins(trace, batch) if margins is None else margins
    loss = float(np.logaddexp(0.0, -z).sum())
    if eta != 0.0:
        users = np.unique(batch[:, 0])
        items = np.unique(batch[:, 1])
        loss += 0.5 * eta * float(
            np.sum(trace.concat_users[users] ** 2)
            + np.sum(trace.concat_items[items] ** 2)
        )
    return loss


def backward(
    trace: ForwardTrace,
    batch: np.ndarray,
    params: ModelParams,
    oper: PropagationOperator,
    eta: float,
    margins=None,
) -> ModelParams:
    """Reverse-mode gradients of the batch loss for every parameter.

    Differentiates through the concatenation, each layer's logistic
    activation, the mixing weights, the (self-adjoint) spectral operator,
    and the per-frequency gates. With e = Phi^T d_pre, a layer's weight
    gradient is (d * c)^T e and its input gradient Phi (d * (e W^T)).
    `margins` as in `bpr_loss`.
    """
    if len(batch) == 0:
        raise DataError("batch must be non-empty")
    z = _margins(trace, batch) if margins is None else margins
    dz = -sigmoid(-z)

    # The loss reads the concatenation only on the batch's distinct users
    # and items. S[u, i] sums dz over the triples (u, i, .) and -dz over
    # (u, ., i), so the gradient there is S ci on users and S^T cu on items.
    # i_at places the positives, then the negatives, among the items.
    users, u_at = np.unique(batch[:, 0], return_inverse=True)
    items, i_at = np.unique(batch[:, 1:].T.ravel(), return_inverse=True)
    s = sp.csr_matrix((np.concatenate([dz, -dz]), (np.tile(u_at, 2), i_at)),
                      shape=(len(users), len(items)))
    cu = trace.concat_users[users]
    ci = trace.concat_items[items]
    d_rows = np.vstack([s @ ci, s.T @ cu])
    if eta != 0.0:
        d_rows[: len(users)] += eta * cu
        pos = np.unique(i_at[: len(batch)])
        d_rows[len(users) + pos] += eta * ci[pos]
    # users at rows u, items at rows m + i, as in the stacked block
    m = trace.num_users
    rows = np.concatenate([users, m + items])

    width = params.x0.shape[1]
    layers = len(params.w)
    grad_w = [None] * layers
    grad_theta = [None] * layers
    d_next = np.zeros((m + len(trace.concat_items), width))
    d_next[rows] = d_rows[:, layers * width:]
    for layer in range(layers - 1, -1, -1):
        h, coeff = trace.caches[layer].h, trace.caches[layer].coeff
        act = trace.zs[layer + 1]
        d_next *= act
        d_next *= 1.0 - act
        e = oper.phi.T @ d_next
        d = (oper.lam * h)[:, None]
        grad_w[layer] = (d * coeff).T @ e
        d_scaled = e @ params.w[layer].T  # gradient of d * coeff
        d_f = np.sum(d_scaled * coeff, axis=1)
        grad_theta[layer] = d_f * oper.lam * oper.g * h * (1.0 - h)
        d_next = oper.phi @ (d * d_scaled)
        d_next[rows] += d_rows[:, layer * width: (layer + 1) * width]

    grads = ModelParams(x0=d_next[:m], y0=d_next[m:], w=grad_w, theta=grad_theta)
    for name, g in grads.tensors():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name}")
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    step: int
    m: dict
    v: dict

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            step=0,
            m={name: np.zeros_like(t) for name, t in params.tensors()},
            v={name: np.zeros_like(t) for name, t in params.tensors()},
        )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, config: TrainConfig
):
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    grad_map = dict(grads.tensors())
    for name, tensor in params.tensors():
        g = grad_map[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        tensor -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
    return params, state


@dataclass
class FitResult:
    best_params: ModelParams
    final_params: ModelParams
    best_epoch: int
    best_recall: float
    best_ndcg: float
    epochs_run: int
    stopped_early: bool


def _save_train_state(path, params, best_params, adam, meta):
    arrays = {f"cur_{name}": t for name, t in params.tensors()}
    arrays.update((f"best_{name}", t) for name, t in best_params.tensors())
    arrays.update((f"adam_m_{name}", t) for name, t in adam.m.items())
    arrays.update((f"adam_v_{name}", t) for name, t in adam.v.items())
    bundles.save_artifact(path, "train-state", TRAIN_STATE_VERSION, meta, arrays)


def fit(
    train_data: InteractionSet,
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    log_fn: Optional[Callable[[str], None]] = None,
    state_path=None,
    resume: bool = False,
    dataset_hash: Optional[str] = None,
) -> FitResult:
    """Train with early stopping on a held-out validation slice.

    A per-user `val_fraction` of the training pairs is held out; after each
    epoch Recall@20 on that slice is measured and training stops once it
    fails to improve for more than `patience` epochs. Each epoch samples
    one triple per remaining training pair. Log lines follow
    "epoch loss val_recall@20 val_ndcg@20 elapsed_ms".

    Randomness derives from two seeds: model_config.seed drives parameter
    init, train_config.seed (as a root) drives the validation split and
    triple sampling via labeled child seeds. `state_path` enables per-epoch
    state saves; `resume=True` continues from such a save bit-exactly, and
    refuses one saved for another dataset or config (only max_epochs and
    patience may change). `dataset_hash` is `train_data`'s
    `ingest.dataset_hash`, computed here if a state is saved and it is
    not given.
    """
    log = log_fn or (lambda line: None)

    inner_train, val = split(
        train_data,
        SplitSpec(
            train_fraction=1.0 - train_config.val_fraction,
            seed=child_seed(train_config.seed, VAL_SPLIT),
        ),
    )
    oper = PropagationOperator(
        decomp, bc, model_config.t, exponent_mode=model_config.exponent_mode
    )
    rng = np.random.default_rng(child_seed(train_config.seed, TRIPLES))

    params = init_params(
        model_config, train_data.num_users, train_data.num_items, decomp.q
    )
    adam = AdamState.init(params)
    best_params = params.copy()
    best_epoch = 0
    best_recall = -np.inf
    best_ndcg = 0.0
    since_best = 0
    start_epoch = 0
    if state_path is not None:
        # every input the saved state depends on; a resume may extend a run
        # through max_epochs and patience only
        run_key = {
            "dataset_hash": dataset_hash or ingest.dataset_hash(train_data),
            "q": int(decomp.q),
            **{f"model.{k}": v for k, v in asdict(model_config).items()},
            **{f"train.{k}": v for k, v in asdict(train_config).items()
               if k not in ("max_epochs", "patience")},
        }

    if resume:
        if state_path is None:
            raise ConfigError("resume requires a state_path")
        meta, arrays = bundles.load_artifact(
            state_path, "train-state", TRAIN_STATE_VERSION
        )
        saved = meta["run_key"]
        for name in sorted(set(saved) | set(run_key)):
            if saved.get(name) != run_key.get(name):
                raise ConfigError(
                    f"{state_path}: the saved state has {name}="
                    f"{saved.get(name)!r}, this run has {name}="
                    f"{run_key.get(name)!r}; a resume may change only "
                    "max_epochs and patience"
                )
        params = ModelParams.from_arrays(arrays, model_config.layers, "cur_")
        best_params = ModelParams.from_arrays(arrays, model_config.layers, "best_")
        adam = AdamState(
            step=meta["adam_step"],
            m={name: arrays[f"adam_m_{name}"] for name, _ in params.tensors()},
            v={name: arrays[f"adam_v_{name}"] for name, _ in params.tensors()},
        )
        rng.bit_generator.state = json.loads(meta["rng_state"])
        start_epoch = meta["epoch"]
        best_epoch = meta["best_epoch"]
        best_recall = meta["best_recall"]
        best_ndcg = meta["best_ndcg"]
        since_best = meta["since_best"]

    count = inner_train.num_pairs
    stopped_early = False
    epoch = start_epoch
    while epoch < train_config.max_epochs:
        epoch += 1
        t0 = time.perf_counter()
        triples = sample_triples(inner_train, count, rng)
        total = 0.0
        for lo in range(0, count, train_config.batch_size):
            batch = triples[lo: lo + train_config.batch_size]
            trace = forward(params, oper, model_config)
            z = _margins(trace, batch)
            total += bpr_loss(trace, batch, train_config.eta, z)
            grads = backward(trace, batch, params, oper, train_config.eta, z)
            adam_step(params, grads, adam, train_config)
        loss = total / count

        trace = forward(params, oper, model_config)
        report = evaluate(
            lambda u: score_user(trace, u), inner_train, val, k_values=(20,)
        )
        recall, ndcg = report.recall[20], report.ndcg[20]
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        line = f"{epoch} {loss:.6f} {recall:.6f} {ndcg:.6f} {elapsed_ms}"
        log(line)

        if recall > best_recall:
            best_recall = recall
            best_ndcg = ndcg
            best_epoch = epoch
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1

        if state_path is not None:
            _save_train_state(
                state_path,
                params,
                best_params,
                adam,
                {
                    "run_key": run_key,
                    "epoch": epoch,
                    "best_epoch": best_epoch,
                    "best_recall": best_recall,
                    "best_ndcg": best_ndcg,
                    "since_best": since_best,
                    "adam_step": adam.step,
                    "rng_state": json.dumps(rng.bit_generator.state),
                },
            )

        if since_best > train_config.patience:
            stopped_early = True
            break

    return FitResult(
        best_params=best_params,
        final_params=params,
        best_epoch=best_epoch,
        best_recall=float(best_recall),
        best_ndcg=float(best_ndcg),
        epochs_run=epoch,
        stopped_early=stopped_early,
    )


def grid_search(
    train_data: InteractionSet,
    decomp: SpectralDecomposition,
    bc: BoxCoxResult,
    model_config: ModelConfig,
    train_config: TrainConfig,
    learning_rates: List[float],
    t_values: List[float],
    log_fn: Optional[Callable[[str], None]] = None,
):
    """Exhaustive search over (learning_rate, t) by validation Recall@20.

    Returns (rows, best_row, best_fit) where each row is
    (learning_rate, t, recall, ndcg, best_epoch).
    """
    if not learning_rates or not t_values:
        raise ConfigError("grid search needs non-empty learning_rate and t lists")
    log = log_fn or (lambda line: None)
    rows = []
    best_row = None
    best_fit = None
    for lr in learning_rates:
        for t in t_values:
            result = fit(
                train_data,
                decomp,
                bc,
                replace(model_config, t=float(t)),
                replace(train_config, learning_rate=float(lr)),
            )
            row = (
                float(lr),
                float(t),
                result.best_recall,
                result.best_ndcg,
                result.best_epoch,
            )
            rows.append(row)
            log(
                f"grid lr={lr} t={t} recall@20={result.best_recall:.6f} "
                f"ndcg@20={result.best_ndcg:.6f} best_epoch={result.best_epoch}"
            )
            if best_row is None or row[2] > best_row[2]:
                best_row = row
                best_fit = result
    return rows, best_row, best_fit
