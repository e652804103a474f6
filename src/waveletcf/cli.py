"""Command-line pipeline: ingest, spectral, train, evaluate, recommend.

Numpy-backed modules are imported only after the `threads` key has been
pinned into the BLAS environment variables, so `threads=1` caps every
thread pool before any linear algebra library initializes; that is what
makes single-threaded runs bitwise reproducible.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Reports go to stdout, diagnostics to stderr.
"""

import argparse
import os
import sys

from .errors import ConfigError, DataError, NumericalError

THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _peek_threads(argv) -> int:
    """Extract the `threads` key ahead of full config resolution.

    Mirrors the normal precedence (file < environment < overrides) but
    swallows parse problems; full resolution reports them properly later.
    """
    config_path = None
    overrides = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
            i += 2
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
            i += 1
        elif arg == "--set" and i + 1 < len(argv):
            overrides.append(argv[i + 1])
            i += 2
        elif arg.startswith("--set="):
            overrides.append(arg.split("=", 1)[1])
            i += 1
        else:
            i += 1

    threads = 1
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    stripped = line.split("#", 1)[0].strip()
                    if "=" in stripped:
                        key, raw = stripped.split("=", 1)
                        if key.strip() == "threads":
                            threads = int(raw)
        except (OSError, ValueError):
            pass
    raw = os.environ.get("WAVELETCF_THREADS")
    if raw:
        try:
            threads = int(raw)
        except ValueError:
            pass
    for pair in overrides:
        if "=" in pair:
            key, raw = pair.split("=", 1)
            if key.strip() == "threads":
                try:
                    threads = int(raw)
                except ValueError:
                    pass
    return threads


def _pin_threads(threads: int) -> None:
    if threads < 1:
        return
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
    """Canonical dataset -> (full, train, test, hash of the train split)."""
    from . import ingest

    data = ingest.load_canonical(cfg.require("dataset"))
    train, test = ingest.split(data, cfg.split_spec())
    return data, train, test, ingest.dataset_hash(train)


def _laplacian(train):
    from . import graph

    adj = graph.build_adjacency(train)
    return graph.build_laplacian(adj, train.num_users, train.num_items)


def _resolved_q(cfg, n: int) -> int:
    from . import spectral

    q = cfg["q"] or spectral.default_q(n)
    if q > n:
        print(
            f"warning: q={q} exceeds graph size N={n}; clamping to {n}",
            file=sys.stderr,
        )
        q = n
    return q


def _spectral_summary(decomp, bc) -> list:
    return [
        f"Q {decomp.q}",
        f"lambda range [{decomp.lambdas.min():.6f}, {decomp.lambdas.max():.6f}]",
        f"kappa {bc.kappa:.6f}",
        f"transformed mean {bc.mean:.6f}",
        f"transformed std {bc.std:.6f}",
        f"transformed total {bc.total:.6f}",
    ]


def cmd_ingest(args, cfg) -> int:
    from . import ingest

    out = cfg.require("dataset")
    _refuse_overwrite(out, args.force)
    raw = ingest.load_interactions(cfg.require("input"), cfg["input_format"])
    data = ingest.filter_by_activity(
        raw, cfg["min_user_interactions"], cfg["min_item_interactions"]
    )
    ingest.persist(data, out, seed=cfg["seed"])
    sparsity = 100.0 * (1.0 - data.num_pairs / (data.num_users * data.num_items))
    print(f"{data.num_pairs} interactions")
    print(f"{data.num_users} users, {data.num_items} items")
    print(f"sparsity {sparsity:.2f}%")
    print(f"dataset hash {ingest.dataset_hash(data)}")
    print(f"wrote {out}")
    return 0


def cmd_spectral(args, cfg) -> int:
    from . import spectral

    _, train, _, train_hash = _load_split(cfg)
    lap = _laplacian(train)
    q = _resolved_q(cfg, lap.n)
    out = cfg.require("spectral_cache")

    if os.path.exists(out):
        try:
            decomp, bc, meta = spectral.load_spectral_cache(
                out, expected_hash=train_hash
            )
        except DataError as exc:
            if not args.force:
                raise ConfigError(
                    f"{out} does not match this run ({exc}); pass --force "
                    "to recompute"
                )
        else:
            unchanged = (
                meta["q"] == q
                and meta["eig_tol"] == cfg["eig_tol"]
                and meta["eig_seed"] == cfg.eig_seed()
            )
            if unchanged:
                # t is not part of the key: check this run's response too
                spectral.filter_response(decomp, bc, cfg["t"], cfg["exponent_mode"])
                print(f"cache hit {out}")
                for line in _spectral_summary(decomp, bc):
                    print(line)
                return 0
            if not args.force:
                raise ConfigError(
                    f"{out} exists with different parameters; pass --force "
                    "to recompute"
                )

    decomp = spectral.eigensolve(lap, q, tol=cfg["eig_tol"], seed=cfg.eig_seed())
    bc = spectral.boxcox_fit(decomp.shifted_lambdas)
    # evaluate once so a non-positive response dies here, not mid-training
    spectral.filter_response(decomp, bc, cfg["t"], cfg["exponent_mode"])
    spectral.save_spectral_cache(
        out, decomp, bc, train_hash, cfg["eig_tol"], cfg.eig_seed()
    )
    for line in _spectral_summary(decomp, bc):
        print(line)
    print(f"wrote {out}")
    return 0


def cmd_train(args, cfg) -> int:
    from dataclasses import replace

    from . import model, spectral, train as train_mod

    _, train_set, _, train_hash = _load_split(cfg)
    decomp, bc, _ = spectral.load_spectral_cache(
        cfg.require("spectral_cache"), expected_hash=train_hash
    )
    out = cfg.require("checkpoint")
    if not args.resume:
        _refuse_overwrite(out, args.force)

    model_config = cfg.model_config()
    train_config = cfg.train_config()
    fit_kwargs = dict(
        exponent_mode=cfg["exponent_mode"],
        val_fraction=cfg["val_fraction"],
        log_fn=print,
    )
    print(
        f"train batch_size={train_config.batch_size} "
        f"layers={model_config.layers} width={model_config.width} "
        f"learning_rate={train_config.learning_rate} t={model_config.t} "
        f"eta={train_config.eta} q={decomp.q} seed={cfg['seed']} "
        f"dataset_hash={train_hash}"
    )

    grid_lrs = cfg["grid_learning_rates"]
    if grid_lrs is not None:
        if args.resume:
            raise ConfigError("resume is not supported together with grid search")
        rows, best_row, result = train_mod.grid_search(
            train_set,
            decomp,
            bc,
            model_config,
            train_config,
            list(grid_lrs),
            list(cfg["grid_t_values"]),
            **fit_kwargs,
        )
        best_lr, best_t = best_row[0], best_row[1]
        print(
            f"grid best lr={best_lr} t={best_t} recall@20={best_row[2]:.6f} "
            f"ndcg@20={best_row[3]:.6f} ({len(rows)} runs)"
        )
        model_config = replace(model_config, t=best_t)
        train_config = replace(train_config, learning_rate=best_lr)
    else:
        state_path = cfg["train_state"]
        if args.resume and not state_path:
            raise ConfigError(
                "resume needs the train_state config key pointing at the "
                "saved state of the interrupted run"
            )
        result = train_mod.fit(
            train_set,
            decomp,
            bc,
            model_config,
            train_config,
            state_path=state_path,
            resume=args.resume,
            **fit_kwargs,
        )

    model.save_checkpoint(
        out,
        model_config,
        result.best_params,
        train_hash,
        extra_meta={
            "best_epoch": result.best_epoch,
            "best_recall": result.best_recall,
            "best_ndcg": result.best_ndcg,
            "epochs_run": result.epochs_run,
            "stopped_early": result.stopped_early,
            "learning_rate": train_config.learning_rate,
            "exponent_mode": cfg["exponent_mode"],
            "root_seed": cfg["seed"],
        },
    )
    print(
        f"best epoch {result.best_epoch} "
        f"val_recall@20 {result.best_recall:.6f} "
        f"val_ndcg@20 {result.best_ndcg:.6f}"
    )
    print(f"wrote {out}")
    return 0


def _score_trace(cfg, decomp, bc, ckpt_config, ckpt_meta, params):
    from . import model

    oper = model.PropagationOperator(
        decomp,
        bc,
        ckpt_config.t,
        exponent_mode=ckpt_meta.get("exponent_mode", cfg["exponent_mode"]),
    )
    return model.forward(params, oper, ckpt_config)


def cmd_evaluate(args, cfg) -> int:
    from . import evaluate as eval_mod, model, spectral

    _, train_set, test_set, train_hash = _load_split(cfg)
    decomp, bc, _ = spectral.load_spectral_cache(
        cfg.require("spectral_cache"), expected_hash=train_hash
    )
    ckpt_config, params, ckpt_meta = model.load_checkpoint(
        cfg.require("checkpoint"), expected_dataset_hash=train_hash
    )
    trace = _score_trace(cfg, decomp, bc, ckpt_config, ckpt_meta, params)

    notes = [f"per-user holdout split (train fraction {cfg['train_fraction']})"]
    if decomp.q < decomp.n:
        notes.append(f"spectrum truncated to Q={decomp.q} of N={decomp.n}")
    report = eval_mod.evaluate(
        lambda u: model.score_user(trace, u),
        train_set,
        test_set,
        k_values=tuple(cfg["k_values"]),
        cohort_boundaries=tuple(cfg["cohort_boundaries"]),
        notes=tuple(notes),
    )

    lines = [f"dataset hash {train_hash}"]
    lines += [f"config {line}" for line in cfg.echo_lines()]
    text = "\n".join(lines) + "\n" + eval_mod.render_report(report)
    sys.stdout.write(text)

    report_path = cfg["report"]
    if report_path:
        _refuse_overwrite(report_path, args.force)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {report_path}")
    return 0


def cmd_cold_start(args, cfg) -> int:
    from . import evaluate as eval_mod, ingest, model, spectral
    from . import train as train_mod

    data = ingest.load_canonical(cfg.require("dataset"))
    k_values = cfg["k_values"]
    k = 20 if 20 in k_values else max(k_values)

    def trainer(train_set, test_set, cap):
        lap = _laplacian(train_set)
        q = _resolved_q(cfg, lap.n)
        decomp = spectral.eigensolve(lap, q, tol=cfg["eig_tol"], seed=cfg.eig_seed())
        bc = spectral.boxcox_fit(decomp.shifted_lambdas)
        result = train_mod.fit(
            train_set,
            decomp,
            bc,
            cfg.model_config(),
            cfg.train_config(),
            exponent_mode=cfg["exponent_mode"],
            val_fraction=cfg["val_fraction"],
        )
        oper = model.PropagationOperator(
            decomp, bc, cfg["t"], exponent_mode=cfg["exponent_mode"]
        )
        trace = model.forward(result.best_params, oper, cfg.model_config())
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
        return report.recall[k], report.ndcg[k]

    rows = eval_mod.cold_start_suite(
        data, list(cfg["cold_start_caps"]), cfg.split_spec(), trainer
    )
    print(eval_mod.render_cold_start(rows))
    return 0


def cmd_recommend(args, cfg) -> int:
    from . import evaluate as eval_mod, model, spectral

    _, train_set, _, train_hash = _load_split(cfg)
    decomp, bc, _ = spectral.load_spectral_cache(
        cfg.require("spectral_cache"), expected_hash=train_hash
    )
    ckpt_config, params, ckpt_meta = model.load_checkpoint(
        cfg.require("checkpoint"), expected_dataset_hash=train_hash
    )
    trace = _score_trace(cfg, decomp, bc, ckpt_config, ckpt_meta, params)

    k = args.k if args.k is not None else max(cfg["k_values"])
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    user_index = train_set.user_index
    seen = train_set.items_by_user()
    for raw_id in args.users.split(","):
        uid = raw_id.strip()
        if not uid:
            continue
        u = user_index.get(uid)
        if u is None:
            print(f"{uid}\terror\tunknown user id")
            continue
        ranked = eval_mod.topk(model.score_user(trace, u), seen[u], k)
        ext = " ".join(str(train_set.item_ids[i]) for i in ranked)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(_peek_threads(argv))
    args = build_parser().parse_args(argv)
    try:
        from . import config as config_mod

        cfg = config_mod.resolve(args.config, args.overrides)
        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
