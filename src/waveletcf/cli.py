"""Command-line pipeline: ingest, spectral, train, evaluate, recommend.

The run config is resolved once (file < environment < `--set`), and its
`threads` value is pinned into the BLAS environment variables before any
numpy-backed module is imported, so `threads=1` caps every thread pool
before any linear algebra library initializes; that is what makes
single-threaded runs bitwise reproducible. `waveletcf.config` imports no
numpy for this reason. Likewise no module imports scipy at its top: only
the functions that build or solve a sparse matrix do, so `ingest`,
`evaluate` and `recommend` never pay for its import.

Exit codes: 0 success, 1 stdout closed by its reader, 2 configuration
error, 3 data error, 4 numerical failure. Reports go to stdout,
diagnostics to stderr.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import config as config_mod
from .errors import ConfigError, DataError, NumericalError

EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4}
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_threads(threads: int) -> None:
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveletcf",
        description="spectral-wavelet collaborative filtering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, force=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        if force:
            p.add_argument(
                "--force",
                action="store_true",
                help="overwrite an existing output file",
            )
        return p

    add_command(
        "ingest", "parse and filter raw interactions into the canonical "
        "dataset file", force=True,
    )
    add_command(
        "spectral", "eigendecompose the training graph and fit the adaptive "
        "filter", force=True,
    )
    p = add_command(
        "train", "train embeddings; runs the (lr, t) grid when grid keys "
        "are set", force=True,
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the train_state file of an interrupted run",
    )
    add_command(
        "evaluate", "score the held-out split and print the metric report",
        force=True,
    )
    add_command(
        "cold-start", "re-split at each training cap, retrain, and report "
        "the metric trend",
    )
    p = add_command("recommend", "top-k ranked items for the given users")
    p.add_argument(
        "--users",
        required=True,
        metavar="IDS",
        help="comma-separated external user ids",
    )
    p.add_argument(
        "--k",
        type=int,
        default=None,
        help="list length (default: largest configured k)",
    )
    return parser


def _refuse_overwrite(path, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise ConfigError(
            f"refusing to overwrite {path}; pass --force to replace it"
        )


def _load_split(cfg):
    """Canonical dataset -> (train, test, hash of the train split)."""
    from . import ingest

    data = ingest.load_canonical(cfg.require("dataset"))
    train, test = ingest.split(data, cfg.split_spec())
    return train, test, ingest.dataset_hash(train)


def _resolved_q(cfg, train) -> int:
    from . import spectral

    n = train.num_users + train.num_items
    q = cfg["q"] or spectral.default_q(n)
    if q > n:
        print(
            f"warning: q={q} exceeds graph size N={n}; clamping to {n}",
            file=sys.stderr,
        )
        q = n
    return q


def _solve(cfg, train):
    """Eigendecomposition of a training graph at the run's `q`, its filter checked."""
    from . import graph, spectral

    q = _resolved_q(cfg, train)
    lap = graph.build_laplacian(
        graph.build_adjacency(train), train.num_users, train.num_items
    )
    decomp = spectral.eigensolve(lap, q, tol=cfg["eig_tol"], seed=cfg.eig_seed())
    _check_filter(cfg, decomp)
    return decomp


def _check_filter(cfg, decomp) -> None:
    """Evaluate this run's filter response once, so that a non-positive one
    dies here, not mid-training, and note a fit stopped at its bound."""
    from . import spectral

    fit = decomp.boxcox
    g = spectral.filter_response(fit, cfg.model_config())
    if fit.at_bound:
        print(f"note: the power-transform fit stopped at its bound (kappa {fit.kappa:.6f}); "
              f"filter response g in [{g.min():.3g}, {g.max():.3g}], "
              f"{(g < 1e-6).sum()} of {len(g)} below 1e-6", file=sys.stderr)


def _load_cache(cfg, train, train_hash, fix="rerun `spectral --force` to recompute it"):
    """The spectral cache's decomposition, if it serves the run on the
    training split `train`: the loader checks its hash, `phi` must have one
    row per node, and q (the run's resolved `q`), eig_tol and eigensolver
    seed must be the run's; `fix` ends the error naming the first that differs."""
    from . import bundles, spectral

    q = _resolved_q(cfg, train)
    path = cfg.require("spectral_cache")
    decomp, _, meta = spectral.load_spectral_cache(path, expected_hash=train_hash)
    n = train.num_users + train.num_items
    if decomp.n != n:
        raise DataError(f"{path}: 'phi' has {decomp.n} rows, expected {n}, one per node")
    saved = {"q": decomp.q, "eig_tol": meta["eig_tol"], "eig_seed": meta["eig_seed"]}
    wanted = {"q": q, "eig_tol": cfg["eig_tol"], "eig_seed": cfg.eig_seed()}
    bundles.refuse_mismatch(f"{path} exists with different parameters",
                            saved, wanted, "cache", fix)
    return decomp


def cmd_ingest(args, cfg) -> int:
    from . import ingest

    out = cfg.require("dataset")
    _refuse_overwrite(out, args.force)
    raw = ingest.load_interactions(cfg.require("input"))
    data = ingest.filter_by_activity(
        raw, cfg["min_user_interactions"], cfg["min_item_interactions"]
    )
    digest = ingest.persist(data, out, seed=cfg["seed"])
    sparsity = 100.0 * (1.0 - data.num_pairs / (data.num_users * data.num_items))
    print(f"{data.num_pairs} interactions")
    print(f"{data.num_users} users, {data.num_items} items")
    print(f"sparsity {sparsity:.2f}%")
    print(f"dataset hash {digest}")
    print(f"wrote {out}")
    return 0


def cmd_spectral(args, cfg) -> int:
    from . import spectral

    train, _, train_hash = _load_split(cfg)
    out = cfg.require("spectral_cache")

    hit = os.path.exists(out) and not args.force
    if hit:
        try:
            decomp = _load_cache(cfg, train, train_hash, "pass --force to recompute")
        except DataError as exc:
            raise ConfigError(
                f"{out} does not match this run ({exc}); pass --force to recompute"
            ) from exc
        # t is not part of the key: check this run's response too
        _check_filter(cfg, decomp)
        print(f"cache hit {out}")
    else:
        decomp = _solve(cfg, train)
        spectral.save_spectral_cache(out, decomp, train_hash, cfg["eig_tol"], cfg.eig_seed())
    fit = decomp.boxcox
    print(f"Q {decomp.q}")
    print(f"lambda range [{decomp.lambdas.min():.6f}, {decomp.lambdas.max():.6f}]")
    print(f"kappa {fit.kappa:.6f}")
    print(f"transformed mean {fit.mean:.6f}")
    print(f"transformed std {fit.std:.6f}")
    print(f"transformed total {fit.total:.6f}")
    if not hit:
        print(f"wrote {out}")
    return 0


def cmd_train(args, cfg) -> int:
    from . import model, train as train_mod

    cells = cfg.grid_cells()
    if cells and (args.resume or cfg["train_state"]):
        # a grid keeps one of many fits, which no one train state describes
        raise ConfigError(
            "grid search saves and resumes no train state: drop --resume "
            "and unset train_state (--set train_state=)"
        )
    train_set, _, train_hash = _load_split(cfg)
    decomp = _load_cache(cfg, train_set, train_hash)
    out = cfg.require("checkpoint")
    if not args.resume:
        _refuse_overwrite(out, args.force)

    model_config = cfg.model_config()
    train_config = cfg.train_config()
    header = (
        f"train batch_size={train_config.batch_size} "
        f"layers={model_config.layers} width={model_config.width} "
        f"learning_rate={train_config.learning_rate} t={model_config.t} "
        f"eta={train_config.eta} q={decomp.q} seed={cfg['seed']} "
        f"dataset_hash={train_hash}"
    )

    def log(line):
        """Print `line`, after the header if first: a refused resume prints nothing."""
        nonlocal header
        if header:
            print(header)
            header = None
        print(line)

    if cells:
        model_config, train_config, result = train_mod.grid_search(
            train_set, decomp, cells, log_fn=log
        )
        log(
            f"grid best lr={train_config.learning_rate} t={model_config.t} "
            f"recall@20={result.best_recall:.6f} ndcg@20={result.best_ndcg:.6f} "
            f"({len(cells)} runs)"
        )
    else:
        result = train_mod.fit(
            train_set,
            decomp,
            model_config,
            train_config,
            log_fn=log,
            state_path=cfg["train_state"],
            resume=args.resume,
            dataset_hash=train_hash,
        )

    model.save_checkpoint(
        out, model_config, result.best_params, train_hash, decomp.fingerprint
    )
    log(
        f"best epoch {result.best_epoch} "
        f"val_recall@20 {result.best_recall:.6f} "
        f"val_ndcg@20 {result.best_ndcg:.6f}"
    )
    print(f"wrote {out}")
    return 0


def _score_trace(decomp, model_config, params):
    from . import model

    oper = model.PropagationOperator(decomp, model_config)
    return model.forward(params, oper)


def _load_trained(cfg):
    """Split, spectral cache and checkpoint of a trained run, scored. A
    checkpoint trained on another eigenbasis than the cache's is refused.

    Returns (train, test, train hash, decomposition, forward trace).
    """
    from . import bundles, model

    train_set, test_set, train_hash = _load_split(cfg)
    decomp = _load_cache(cfg, train_set, train_hash)
    path = cfg.require("checkpoint")
    ckpt_config, params, meta = model.load_checkpoint(
        path, train_set.num_users, train_set.num_items, decomp.q, train_hash
    )
    bundles.refuse_mismatch(path, {"basis": meta["basis"]},
                            {"basis": decomp.fingerprint}, "checkpoint", "rerun `train`")
    trace = _score_trace(decomp, ckpt_config, params)
    return train_set, test_set, train_hash, decomp, trace


def cmd_evaluate(args, cfg) -> int:
    from . import bundles, evaluate as eval_mod, model

    report_path = cfg["report"]
    _refuse_overwrite(report_path, args.force)
    train_set, test_set, train_hash, decomp, trace = _load_trained(cfg)
    report = eval_mod.evaluate(
        lambda u: model.score_user(trace, u),
        train_set,
        test_set,
        k_values=tuple(cfg["k_values"]),
        cohort_boundaries=tuple(cfg["cohort_boundaries"]),
    )

    lines = [f"dataset hash {train_hash}"]
    lines += [f"config {line}" for line in cfg.echo_lines()]
    lines.append(f"# per-user holdout split (train fraction {cfg['train_fraction']})")
    if decomp.q < decomp.n:
        lines.append(f"# spectrum truncated to Q={decomp.q} of N={decomp.n}")
    text = "\n".join(lines) + "\n" + eval_mod.render_report(report)
    sys.stdout.write(text)

    if report_path:
        bundles.write_atomic(report_path, [text.encode("utf-8")])
        print(f"wrote {report_path}")
    return 0


def cmd_cold_start(args, cfg) -> int:
    from . import evaluate as eval_mod, ingest, model
    from . import train as train_mod

    if cfg["grid_learning_rates"] or cfg["train_state"]:
        # each cap trains one model at the run's own learning_rate and t
        raise ConfigError(
            "cold-start runs no grid search and saves no train state: drop "
            "grid_learning_rates and grid_t_values, and unset train_state "
            "(--set train_state=)"
        )
    data = ingest.load_canonical(cfg.require("dataset"))
    k_values = cfg["k_values"]
    k = 20 if 20 in k_values else max(k_values)
    model_config = cfg.model_config()
    rows = []
    for cap in cfg["cold_start_caps"]:
        train_set, test_set = ingest.split(
            data, replace(cfg.split_spec(), per_user_cap=cap)
        )
        decomp = _solve(cfg, train_set)
        result = train_mod.fit(train_set, decomp, model_config, cfg.train_config())
        trace = _score_trace(decomp, model_config, result.best_params)
        report = eval_mod.evaluate(
            lambda u: model.score_user(trace, u),
            train_set,
            test_set,
            k_values=(k,),
        )
        print(
            f"cap {cap}: recall@{k} {report.recall[k]:.6f} "
            f"ndcg@{k} {report.ndcg[k]:.6f} "
            f"({report.num_eligible} eligible users)",
            file=sys.stderr,
        )
        rows.append((cap, report.recall[k], report.ndcg[k]))
    print(eval_mod.render_cold_start(rows, k))
    return 0


def cmd_recommend(args, cfg) -> int:
    from . import evaluate as eval_mod, model

    k = args.k if args.k is not None else max(cfg["k_values"])
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    asked = [uid for uid in (raw.strip() for raw in args.users.split(",")) if uid]
    if not asked:
        raise ConfigError(f"--users names no user id, got {args.users!r}")
    train_set, _, _, _, trace = _load_trained(cfg)
    user_index = train_set.user_index
    known = [uid for uid in asked if uid in user_index]
    users = [user_index[uid] for uid in known]
    seen = eval_mod.interactions(train_set, users)
    ranked, lengths = eval_mod.topk(model.score_user(trace, users), seen, k)
    lists = {uid: ranked[r, : lengths[r]] for r, uid in enumerate(known)}
    for uid in asked:
        if uid not in lists:
            print(f"{uid}\terror\tunknown user id")
            continue
        ext = " ".join(str(train_set.item_ids[i]) for i in lists[uid])
        print(f"{uid}\tok\t{ext}")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "spectral": cmd_spectral,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "cold-start": cmd_cold_start,
    "recommend": cmd_recommend,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            cfg = config_mod.resolve(args.config, args.overrides)
            _pin_threads(cfg["threads"])
            return COMMANDS[args.command](args, cfg)
        except tuple(EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CODES[type(exc)]
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; what is left to flush at exit goes to
        # devnull, so that no second BrokenPipeError is reported
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
