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
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import bundles, ingest
from .config import ModelConfig, SplitSpec, TrainConfig
from .errors import ConfigError, DataError, NumericalError
from .evaluate import evaluate
from .ingest import InteractionSet, split
from .model import (
    ForwardTrace,
    ModelParams,
    PropagationOperator,
    forward,
    init_params,
    param_shapes,
    row_blocks,
    score_user,
    sigmoid,
)
from .seeds import TRIPLES, VAL_SPLIT, child_seed
from .spectral import SpectralDecomposition

TRAIN_STATE_VERSION = 4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    # ascending already: InteractionSet lexsorts its pairs and the mask keeps order
    encoded = pairs[:, 0].astype(np.int64) * train.num_items + pairs[:, 1]

    def is_positive(users, items):
        key = users * train.num_items + items
        idx = np.clip(np.searchsorted(encoded, key), 0, len(encoded) - 1)
        return encoded[idx] == key

    picks = rng.integers(0, len(pairs), count)
    out = np.empty((count, 3), dtype=np.int64)
    out[:, 0] = pairs[picks, 0]
    out[:, 1] = pairs[picks, 1]
    js = rng.integers(0, train.num_items, count)
    bad = np.flatnonzero(is_positive(out[:, 0], js))
    while bad.size:  # redraw, then re-test, only the rejected negatives
        js[bad] = rng.integers(0, train.num_items, bad.size)
        bad = bad[is_positive(out[bad, 0], js[bad])]
    out[:, 2] = js
    return out


class BatchRows:
    """A batch's distinct users and items as stacked rows, found once per
    step for the loss and the gradients, and the triples' margins cu[u] .
    (ci[i] - ci[j]) on the concatenated embeddings, each summed along its row."""

    def __init__(self, trace: ForwardTrace, batch: np.ndarray):
        at = batch + [0, trace.num_users, trace.num_users]  # stacked rows
        self.users, self.u_at = np.unique(at[:, 0], return_inverse=True)
        # i_at places the positives, then the negatives, among the items
        self.items, self.i_at = np.unique(at[:, 1:].T.ravel(), return_inverse=True)
        self.pos = np.unique(self.i_at[: len(batch)])
        self.margins = np.empty(len(batch))
        for part in row_blocks(len(batch), trace.zs.shape[0] * trace.zs.shape[2]):
            prod = trace.concat(at[part, 1])
            prod -= trace.concat(at[part, 2])
            prod *= trace.concat(at[part, 0])
            np.sum(prod, axis=1, out=self.margins[part])


def bpr_loss(trace: ForwardTrace, rows: BatchRows, eta: float) -> float:
    """Pairwise ranking loss with batch-restricted L2 regularization.

    Sum of softplus(-margin) over the triples of `rows` plus (eta/2) times
    the squared norms of the distinct batch users' and distinct positive
    items' concatenated embeddings. Overflow-safe via logaddexp.
    """
    loss = float(np.logaddexp(0.0, -rows.margins).sum())
    if eta != 0.0:
        cu = trace.concat(rows.users)
        ci = trace.concat(rows.items[rows.pos])
        loss += 0.5 * eta * float(
            np.sum(np.square(cu, out=cu)) + np.sum(np.square(ci, out=ci))
        )
    return loss


def backward(
    trace: ForwardTrace,
    rows: BatchRows,
    params: ModelParams,
    oper: PropagationOperator,
    eta: float,
) -> ModelParams:
    """Reverse-mode gradients of the batch loss for every parameter.

    Differentiates through the concatenation, each layer's logistic
    activation, the mixing weights, the (self-adjoint) spectral operator,
    and the per-frequency gates. With e = Phi^T d_pre, a layer's weight
    gradient is (d * c)^T e and its input gradient Phi (d * (e W^T)).
    The x0 and y0 gradients are views of `trace.grad`, which the next
    call on the same trace overwrites.
    """
    import scipy.sparse as sp

    dz = -sigmoid(-rows.margins)

    # The loss reads the concatenation only on the batch's distinct users
    # and items. S[u, i] sums dz over the triples (u, i, .) and -dz over
    # (u, ., i), so the gradient there is S ci on users and S^T cu on
    # items, taken one layer's columns at a time.
    s = sp.csr_matrix((np.concatenate([dz, -dz]), (np.tile(rows.u_at, 2), rows.i_at)),
                      shape=(len(rows.users), len(rows.items)))
    s_t = s.T
    layers = len(params.w)
    grad_w = [None] * layers
    grad_theta = [None] * layers
    d_next = trace.grad
    d_next.fill(0.0)
    for layer in range(layers, -1, -1):
        if layer < layers:
            h, coeff = oper.gate(params.theta[layer]), trace.coeffs[layer]
            act = trace.zs[layer + 1]
            for part in row_blocks(*d_next.shape):
                d_next[part] *= act[part]
                d_next[part] *= 1.0 - act[part]
            e = oper.phi.T @ d_next
            d = (oper.lam * h)[:, None]
            grad_w[layer] = (d * coeff).T @ e
            d_scaled = e @ params.w[layer].T  # gradient of d * coeff
            d_f = np.sum(d_scaled * coeff, axis=1)
            grad_theta[layer] = d_f * oper.lam * oper.g * h * (1.0 - h)
            np.matmul(oper.phi, d * d_scaled, out=d_next)
        # the loss's gradient on the batch rows of this layer's columns
        cu, ci = trace.zs[layer][rows.users], trace.zs[layer][rows.items]
        d_users, d_items = s @ ci, s_t @ cu
        if eta != 0.0:
            d_users += eta * cu
            d_items[rows.pos] += eta * ci[rows.pos]
        for at, grad in ((rows.users, d_users), (rows.items, d_items)):
            d_next[at] += grad

    m = trace.num_users
    grads = ModelParams(x0=d_next[:m], y0=d_next[m:], w=grad_w, theta=grad_theta)
    for name, g in grads.tensors():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name}")
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, one per model tensor, plus the
    step counter, and the update's scratch pair, which is never saved."""

    step: int
    m: ModelParams
    v: ModelParams
    scratch: np.ndarray = field(default=None, repr=False)

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(0, params.map(np.zeros_like), params.map(np.zeros_like))


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, config: TrainConfig
) -> None:
    """Bias-corrected Adam update of `params` and `state` by the ADAM_*
    constants, in place, through a scratch pair sized to the largest tensor."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    if state.scratch is None:
        state.scratch = np.empty((2, max(t.size for _, t in params.tensors())))
    lockstep = zip(*(p.tensors() for p in (params, grads, state.m, state.v)), strict=True)
    for (_, tensor), (_, g), (_, m), (_, v) in lockstep:
        s, t = (a[: g.size].reshape(g.shape) for a in state.scratch)
        m *= b1
        m += np.multiply(g, 1 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(g, 1 - b2, out=s), g, out=s)
        np.multiply(np.divide(m, c1, out=s), config.learning_rate, out=s)
        np.sqrt(np.divide(v, c2, out=t), out=t)
        tensor -= np.divide(s, np.add(t, ADAM_EPS, out=t), out=s)


def step(trace, batch, params, oper, adam, config: TrainConfig):
    """One training step on `batch`: forward into `trace` (a new one when
    None), loss, gradients and the in-place Adam update. Returns (trace, loss)."""
    trace = forward(params, oper, out=trace)
    rows = BatchRows(trace, batch)
    loss = bpr_loss(trace, rows, config.eta)
    grads = backward(trace, rows, params, oper, config.eta)
    adam_step(params, grads, adam, config)
    return trace, loss


@dataclass
class TrainState:
    """The record a run resumes from: current and best parameters, Adam's
    moments, the sampler's generator and the early-stopping counters.
    Patience is the run's `TrainConfig`'s, not part of the record."""

    params: ModelParams
    best_params: ModelParams
    adam: AdamState
    rng: np.random.Generator
    epoch: int = 0
    best_epoch: int = 0
    best_recall: float = -np.inf
    best_ndcg: float = 0.0
    since_best: int = 0
    # each counter's type; a real may be stored as a JSON integer
    COUNTERS = {"epoch": int, "best_epoch": int, "best_recall": float,
                "best_ndcg": float, "since_best": int}
    # stored name prefixes of params, best_params, adam.m and adam.v
    PREFIXES = ("cur_", "best_", "adam_m_", "adam_v_")

    def save(self, path, run_key: dict) -> None:
        sets = (self.params, self.best_params, self.adam.m, self.adam.v)
        arrays = {prefix + name: t for prefix, tensors in zip(self.PREFIXES, sets)
                  for name, t in tensors.tensors()}
        meta = {"run_key": run_key, **{k: getattr(self, k) for k in self.COUNTERS},
                "adam_step": self.adam.step,
                "rng_state": json.dumps(self.rng.bit_generator.state)}
        bundles.save_artifact(path, "train-state", TRAIN_STATE_VERSION, meta, arrays)

    @classmethod
    def load(cls, path, run_key: dict, shapes: dict, rng):
        """The state saved at `path` for the run `run_key`, with tensors
        of `shapes` (see `model.param_shapes`), continuing `rng`. A state
        saved for another run is a ConfigError naming the first key that
        differs. A malformed run key, counter or generator state is a
        DataError naming its key, and so are counters that no run leaves:
        a `best_epoch` outside [0, epoch], a `since_best` other than
        epoch - best_epoch or an `adam_step` below `epoch`."""
        meta, arrays = bundles.load_artifact(path, "train-state", TRAIN_STATE_VERSION)
        saved = meta["run_key"]
        if not isinstance(saved, dict):
            raise DataError(f"{path}: 'run_key' must be an object, got {saved!r}")
        bundles.refuse_mismatch(path, saved, run_key, "state",
                                "a resume may change only max_epochs and patience")
        params, best, m, v = (ModelParams.from_arrays(arrays, shapes, prefix)
                              for prefix in cls.PREFIXES)
        for key, kind in {"adam_step": int, **cls.COUNTERS}.items():
            if type(meta[key]) not in ((int,) if kind is int else (int, float)):  # no bool
                raise DataError(f"{path}: '{key}' must be of type {kind.__name__}, "
                                f"got {meta[key]!r}")
        epoch, best_epoch = meta["epoch"], meta["best_epoch"]
        for key, rule, good in (
            ("best_epoch", f"in [0, epoch] = [0, {epoch}]", 0 <= best_epoch <= epoch),
            ("since_best", f"epoch - best_epoch = {epoch - best_epoch}",
             meta["since_best"] == epoch - best_epoch),
            ("adam_step", f">= epoch = {epoch}", meta["adam_step"] >= epoch),
        ):
            if not good:
                raise DataError(f"{path}: '{key}' must be {rule}, got {meta[key]!r}")
        try:
            rng.bit_generator.state = json.loads(meta["rng_state"])
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise DataError(f"{path}: 'rng_state' is not a generator state ({exc})") from exc
        adam = AdamState(meta["adam_step"], m, v)
        return cls(params, best, adam, rng, *(meta[k] for k in cls.COUNTERS))


def fit(
    train_data: InteractionSet,
    decomp: SpectralDecomposition,
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    log_fn: Optional[Callable[[str], None]] = None,
    state_path=None,
    resume: bool = False,
    dataset_hash: Optional[str] = None,
) -> TrainState:
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
    refuses one saved for another dataset, eigenbasis or config (only
    max_epochs and patience may change); resuming a run that already
    stopped trains no further. `dataset_hash` is `train_data`'s
    `ingest.dataset_hash`, computed here if a state is saved without it.
    """
    if resume and not state_path:
        raise ConfigError(
            "resume needs the train_state config key pointing at the "
            "saved state of the interrupted run"
        )
    log = log_fn or (lambda line: None)

    inner_train, val = split(
        train_data,
        SplitSpec(
            train_fraction=1.0 - train_config.val_fraction,
            seed=child_seed(train_config.seed, VAL_SPLIT),
        ),
    )
    oper = PropagationOperator(decomp, model_config)
    rng = np.random.default_rng(child_seed(train_config.seed, TRIPLES))
    if state_path:
        # every input the saved state depends on; a resume may extend a run
        # through max_epochs and patience only
        run_key = {
            "dataset_hash": dataset_hash or ingest.dataset_hash(train_data),
            "q": int(decomp.q),
            "basis": decomp.fingerprint,
            **{f"model.{k}": v for k, v in asdict(model_config).items()},
            **{f"train.{k}": v for k, v in asdict(train_config).items()
               if k not in ("max_epochs", "patience")},
        }
    sizes = (model_config, train_data.num_users, train_data.num_items, decomp.q)
    if resume:
        state = TrainState.load(state_path, run_key, param_shapes(*sizes), rng)
    else:
        params = init_params(*sizes)
        state = TrainState(params, params.map(np.copy), AdamState.init(params), rng)

    count = inner_train.num_pairs
    params = state.params
    trace = None  # every step overwrites the same buffers
    while state.epoch < train_config.max_epochs and state.since_best <= train_config.patience:
        state.epoch += 1
        t0 = time.perf_counter()
        triples = sample_triples(inner_train, count, rng)
        total = 0.0
        for lo in range(0, count, train_config.batch_size):
            batch = triples[lo: lo + train_config.batch_size]
            trace, loss = step(trace, batch, params, oper, state.adam, train_config)
            total += loss
        loss = total / count

        trace = forward(params, oper, out=trace)
        report = evaluate(
            lambda u: score_user(trace, u), inner_train, val, k_values=(20,)
        )
        recall, ndcg = report.recall[20], report.ndcg[20]
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        log(f"{state.epoch} {loss:.6f} {recall:.6f} {ndcg:.6f} {elapsed_ms}")

        if recall > state.best_recall:
            state.best_recall, state.best_ndcg = float(recall), float(ndcg)
            state.best_epoch = state.epoch
            state.best_params = params.map(np.copy)
            state.since_best = 0
        else:
            state.since_best += 1
        if state_path:
            state.save(state_path, run_key)
    return state


def grid_search(
    train_data: InteractionSet,
    decomp: SpectralDecomposition,
    cells: List[Tuple[ModelConfig, TrainConfig]],
    log_fn: Optional[Callable[[str], None]] = None,
):
    """Exhaustive search over the (model_config, train_config) `cells` (see
    `RunConfig.grid_cells`) by validation Recall@20.

    Returns the best cell's (model_config, train_config, fitted state);
    of equally good cells, the first wins.
    """
    if not cells:
        raise ConfigError("grid search needs at least one cell")
    log = log_fn or (lambda line: None)
    best = None
    for model_config, train_config in cells:
        result = fit(train_data, decomp, model_config, train_config)
        log(
            f"grid lr={train_config.learning_rate} t={model_config.t} "
            f"recall@20={result.best_recall:.6f} "
            f"ndcg@20={result.best_ndcg:.6f} best_epoch={result.best_epoch}"
        )
        if best is None or result.best_recall > best[2].best_recall:
            best = (model_config, train_config, result)
    return best
