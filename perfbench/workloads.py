"""The benchmark's workloads, their set-up, loops and output checks.

Every workload drives the real CLI entry point `waveletcf.cli.main`
in-process, with `threads = 1`, on a log generated from the run's seed.
Each pipeline repetition works in a fresh directory with relative paths,
so its artifacts are byte-comparable across repetitions, runs and
checkouts.

- fit-medium: ingest -> spectral -> train -> evaluate -> recommend,
  repeated. Training dominates, and it writes a train-state bundle every
  epoch.
- spectral-large: ingest -> spectral, repeated, on a larger graph. The
  eigensolve and the dense wavelet pair dominate; nothing trains.

Both logs are MovieLens-1M scaled down: its users and items times a
factor, at its density (see gen.py).

In a traced run, every second repetition is traced, so the untraced ones
in between give the tracing overhead.
"""

import contextlib
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from waveletcf import cli, evaluate as eval_mod, graph, ingest, spectral
from waveletcf import config as config_mod, seeds

from gen import generate_log
from tracing import MemoryPeaks, Tracer, summarize

# MovieLens-1M's 6040 users x 3706 items, times 0.25 and 0.4
SHAPES = {
    "fit-medium": {"users": 1510, "items": 927},
    "spectral-large": {"users": 2416, "items": 1482},
}
FIT_EPOCHS = 2
IMPORT_SAMPLES = 15
MIN_REPETITIONS = 3
RECOMMEND_K = 20
# users asked for by fit-medium's recommend stage, plus one unknown id
FIT_RECOMMEND_USERS = 20
# how a repetition is observed: not at all, with timed spans, or with
# per-stage allocation peaks
PLAIN, SPANS, MEMORY = "plain", "spans", "memory"
EIG_TOL = 1e-9
# Ritz residuals may exceed eig_tol by this factor after the cache's
# clipping of eigenvalues into [0, 2]
RESIDUAL_FACTOR = 10.0
ORTHO_TOL = 1e-8

ARTIFACTS = {
    "dataset": "dataset.bin",
    "spectral_cache": "spectral.bin",
    "checkpoint": "model.ckpt",
    "report": "report.txt",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import waveletcf.cli, waveletcf.config, waveletcf.ingest, waveletcf.graph\n"
    "import waveletcf.spectral, waveletcf.model, waveletcf.train\n"
    "import waveletcf.evaluate, waveletcf.bundles\n"
    "print(time.perf_counter() - t)\n"
)


def _config_text(seed, epochs):
    lines = [
        "input = ../log.tsv",
        *(f"{key} = {name}" for key, name in ARTIFACTS.items()),
        "train_state = train.state",
        f"seed = {seed}",
        "threads = 1",
        f"eig_tol = {EIG_TOL}",
        f"max_epochs = {epochs}",
        f"patience = {epochs + 1}",
        "k_values = 10, 20",
    ]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _inside(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """State of one benchmark run: calls made, problems found, spans."""

    def __init__(self, workload, workdir, seed, seconds, traced, src):
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.src = src
        self.calls = []
        self.tracer = Tracer()
        self.memory = MemoryPeaks()
        self.traced_runs = 0
        self.extra = {}
        self.fingerprints = []
        self.op_times = []  # (traced, seconds) per repetition
        self.served = {}  # user id -> the list recommend gave it

    # -- plumbing ---------------------------------------------------------

    def cli(self, stage, args=(), kind=PLAIN):
        """One in-process CLI call in the current directory.

        Returns (call record, captured stdout). A call that raises counts
        as exit code 1, with its traceback kept as the problem.
        """
        out, err = io.StringIO(), io.StringIO()
        probe = {SPANS: self.tracer, MEMORY: self.memory}.get(kind)
        span = probe.cli_stage(stage) if probe else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main([stage, "--config", "run.cfg", *args])
            except Exception:  # a traceback is a failed call, not a crash
                traceback.print_exc()
                rc = 1
        record = {"stage": stage, "rc": rc, "s": time.perf_counter() - start,
                  "problems": []}
        if rc != 0:
            record["problems"].append(f"exit {rc}: {err.getvalue().strip()[-400:]}")
        self.calls.append(record)
        return record, out.getvalue()

    def fail(self, record, problem):
        record["problems"].append(problem)

    def fresh_dir(self, name, epochs):
        path = os.path.join(self.workdir, name)
        os.mkdir(path)
        with open(os.path.join(path, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(_config_text(self.seed, epochs))
        return path

    def fingerprint(self, path):
        return {
            key: _sha256(os.path.join(path, name))
            for key, name in ARTIFACTS.items()
            if os.path.exists(os.path.join(path, name))
        }

    @contextlib.contextmanager
    def operation(self, index, directory, kind):
        """Run repetition `index` in `directory`, observed as `kind`."""
        with _inside(directory):
            if kind == SPANS:
                self.traced_runs += 1
                with self.tracer.installed(index):
                    yield
            elif kind == MEMORY:
                with self.memory.installed():
                    yield
            else:
                yield

    def import_samples(self):
        """Seconds to import the CLI and the modules its commands load,
        each in a fresh interpreter."""
        samples = []
        for _ in range(IMPORT_SAMPLES):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, self.src],
                capture_output=True, text=True, check=True, timeout=120,
            )
            samples.append(float(done.stdout.strip()))
        return samples

    # -- shared checks ----------------------------------------------------

    def load_split(self, directory):
        """(train, test) of the dataset in `directory`, as the CLI splits it."""
        cfg = config_mod.resolve(os.path.join(directory, "run.cfg"), [])
        data = ingest.load_canonical(os.path.join(directory, ARTIFACTS["dataset"]))
        train, test = ingest.split(data, cfg.split_spec())
        self.extra.update(users=data.num_users, items=data.num_items,
                          pairs=data.num_pairs, train_pairs=train.num_pairs)
        return train, test

    def check_spectral(self, record, stdout, directory, train):
        """Fresh cache written; eigenpairs of the training Laplacian."""
        if "cache hit" in stdout or "wrote" not in stdout:
            self.fail(record, "spectral stage did not compute a fresh cache")
            return
        adj = graph.build_adjacency(train)
        lap = graph.build_laplacian(adj, train.num_users, train.num_items)
        decomp, _, _ = spectral.load_spectral_cache(
            os.path.join(directory, ARTIFACTS["spectral_cache"]),
            expected_hash=ingest.dataset_hash(train),
        )
        phi, lam = decomp.phi, decomp.lambdas
        residual = np.linalg.norm(lap.lap.matvec(phi) - phi * lam, axis=0).max()
        ortho = np.abs(phi.T @ phi - np.eye(decomp.q)).max()
        self.extra.update(
            graph_n=lap.n, q=decomp.q, max_residual=float(residual),
            max_ortho_error=float(ortho),
        )
        if residual > RESIDUAL_FACTOR * EIG_TOL:
            self.fail(record, f"eigenpair residual {residual:.3g} above tolerance")
        if ortho > ORTHO_TOL:
            self.fail(record, f"eigenvectors not orthonormal ({ortho:.3g})")
        if np.any(np.diff(lam) < 0) or lam.min() < 0 or lam.max() > 2:
            self.fail(record, "eigenvalues not ascending within [0, 2]")
        if lam[0] > ORTHO_TOL:
            self.fail(record, f"smallest eigenvalue {lam[0]:.3g} is not 0")

    def check_same_bytes(self, record, prints):
        """Repetitions of one seed must write identical artifacts."""
        self.fingerprints.append(prints)
        if prints != self.fingerprints[0]:
            differing = sorted(k for k in prints if prints[k] != self.fingerprints[0].get(k))
            self.fail(record, f"artifacts differ between repetitions: {differing}")

    # -- results ----------------------------------------------------------

    def attempted(self):
        return len(self.calls)

    def failed(self):
        return sum(1 for c in self.calls if c["rc"] != 0 or c["problems"])

    def problems(self):
        return [f"{c['stage']}: {p}" for c in self.calls for p in c["problems"]]

    def layer_stats(self):
        return summarize(self.tracer.spans, max(self.traced_runs, 1))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- pipeline workloads ---------------------------------------------------


def _run_pipelines(run, stages, epochs, stage_args):
    """Repeat the pipeline in fresh directories for the run's duration.

    In a traced run every second repetition records spans, and one more
    repetition after the timed loop records allocation peaks."""
    reps, train = [], None
    loop_start = time.perf_counter()
    index = 0
    while index < MIN_REPETITIONS or time.perf_counter() - loop_start < run.seconds:
        kind = SPANS if run.traced and index % 2 == 1 else PLAIN
        rep, train = _repetition(run, index, kind, stages, epochs, stage_args, train)
        reps.append(rep)
        run.op_times.append((kind == SPANS, rep["s"]))
        index += 1
    run.extra["loop_s"] = time.perf_counter() - loop_start
    if run.traced:
        _repetition(run, index, MEMORY, stages, epochs, stage_args, train)
    return reps


def _repetition(run, index, kind, stages, epochs, stage_args, train):
    """One checked pipeline; returns its timings and the training split."""
    directory = run.fresh_dir(f"op{index}", epochs)
    stage_s, outputs, records = {}, {}, {}
    start = time.perf_counter()
    with run.operation(index, directory, kind):
        for stage in stages:
            record, stdout = run.cli(stage, stage_args.get(stage, ()), kind)
            stage_s[stage] = record["s"]
            outputs[stage] = stdout
            records[stage] = record
            if record["rc"] != 0:
                break
    elapsed = time.perf_counter() - start
    if len(records) == len(stages) and record["rc"] == 0:
        if train is None:
            train = _check_first_pipeline(run, records, outputs, directory, epochs)
        if "recommend" in records:
            asked = stage_args["recommend"][1].split(",")
            _check_recommendations(
                run, [(records["recommend"], asked, outputs["recommend"])], train)
        run.check_same_bytes(record, run.fingerprint(directory))
    _remove_tree(directory)
    return {"s": elapsed, "traced": kind == SPANS, "stages": stage_s}, train


def _check_first_pipeline(run, records, outputs, directory, epochs):
    """Checks on the first complete repetition; returns its training split."""
    train, test = run.load_split(directory)
    run.check_spectral(records["spectral"], outputs["spectral"], directory, train)
    if "evaluate" not in records:
        return train
    report = _parse_report(os.path.join(directory, ARTIFACTS["report"]))
    popular = eval_mod.popularity_scores(train)
    baseline = eval_mod.evaluate(lambda u: popular, train, test, k_values=(20,))
    run.extra.update(
        recall_at_20=report["recall"], ndcg_at_20=report["ndcg"],
        popularity_recall_at_20=baseline.recall[20],
        eligible_users=report["eligible"],
        triples_per_epoch=_inner_train_pairs(train, directory),
        epochs=epochs,
    )
    if not report["recall"] > baseline.recall[20]:
        run.fail(
            records["evaluate"],
            f"recall@20 {report['recall']:.4f} does not beat popularity "
            f"{baseline.recall[20]:.4f}",
        )
    return train


def _inner_train_pairs(train, directory):
    """Training pairs left after fit's validation hold-out: one triple
    is sampled per pair and epoch."""
    cfg = config_mod.resolve(os.path.join(directory, "run.cfg"), [])
    inner, _ = ingest.split(
        train,
        ingest.SplitSpec(
            train_fraction=1.0 - cfg["val_fraction"],
            seed=seeds.child_seed(cfg["seed"], seeds.VAL_SPLIT),
        ),
    )
    return inner.num_pairs


def _parse_report(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if line.startswith("eligible test users:"):
                out["eligible"] = int(parts[-1])
            elif len(parts) == 5 and parts[1:3] == ["20", "all"]:
                out[parts[0]] = float(parts[3])
    return out


def _remove_tree(path):
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))
    os.rmdir(path)


def _pipeline_metrics(run, reps, rows, stages, hot_stage, hot_units):
    """Headline and workload metrics over the untraced repetitions.

    `hot_units` is the work of the stage that dominates the workload, so
    that `hot_stage_units_per_s` gates that stage on its own."""
    plain = [r for r in reps if not r["traced"]]
    per_stage = {
        stage: statistics.median(r["stages"][stage] for r in plain if stage in r["stages"])
        for stage in stages
        if any(stage in r["stages"] for r in plain)
    }
    pipeline_s = statistics.median(r["s"] for r in plain)
    extra = {
        "pipeline_s": (pipeline_s, "s"),
        "ingest_rows_per_s": (rows / per_stage["ingest"], "rows/s"),
        "spectral_s": (per_stage.get("spectral"), "s"),
    }
    if "train" in per_stage and "epochs" in run.extra:
        triples = run.extra["epochs"] * run.extra["triples_per_epoch"]
        extra["train_triples_per_s"] = (triples / per_stage["train"], "triples/s")
        extra["eval_users_per_s"] = (
            run.extra["eligible_users"] / per_stage["evaluate"], "users/s")
        extra["recall_at_20"] = (run.extra["recall_at_20"], "ratio")
        extra["ndcg_at_20"] = (run.extra["ndcg_at_20"], "ratio")
    headline = {
        "op_p50_ms": (pipeline_s * 1000.0, "ms"),
        "hot_stage_units_per_s": (hot_units / per_stage[hot_stage], "1/s"),
    }
    return headline, extra


def fit_medium(run, rows):
    stages = ("ingest", "spectral", "train", "evaluate", "recommend")
    rng = np.random.default_rng(run.seed)
    picked = rng.choice(SHAPES["fit-medium"]["users"], FIT_RECOMMEND_USERS,
                        replace=False)
    users = [f"u{i}" for i in picked] + ["ghost0"]
    recommend = ("--users", ",".join(users), "--k", str(RECOMMEND_K))
    reps = _run_pipelines(run, stages, FIT_EPOCHS, {"recommend": recommend})
    triples = FIT_EPOCHS * run.extra["triples_per_epoch"]
    return _pipeline_metrics(run, reps, rows, stages, "train", triples)


def spectral_large(run, rows):
    stages = ("ingest", "spectral")
    reps = _run_pipelines(run, stages, 1, {})
    return _pipeline_metrics(run, reps, rows, stages, "spectral",
                             run.extra["train_pairs"])


def _check_recommendations(run, requests, train):
    seen = train.items_by_user()
    item_ids = train.item_ids
    index = train.user_index
    for record, users, stdout in requests:
        if record["rc"] != 0:
            continue
        lines = stdout.splitlines()
        if len(lines) != len(users):
            run.fail(record, f"{len(lines)} lines for {len(users)} users")
            continue
        for uid, line in zip(users, lines):
            cols = line.split("\t")
            if cols[0] != uid:
                run.fail(record, f"line for {cols[0]!r} where {uid!r} was asked")
            elif uid not in index:
                if cols[1:2] != ["error"]:
                    run.fail(record, f"unknown id {uid} got no error line")
            elif cols[1:2] != ["ok"] or len(cols) != 3:
                run.fail(record, f"known user {uid} got {line!r}")
            else:
                items = cols[2].split(" ")
                owned = {item_ids[i] for i in seen[index[uid]]}
                if len(set(items)) != RECOMMEND_K or owned.intersection(items):
                    run.fail(record, f"bad list for {uid}")
                if run.served.setdefault(uid, items) != items:
                    run.fail(record, f"{uid} got two different lists")


def run_workload(run):
    """Generate the log, set up, run the loop; returns the result dict."""
    shape = SHAPES[run.workload]
    log_path = os.path.join(run.workdir, "log.tsv")
    rows = generate_log(log_path, shape["users"], shape["items"], run.seed)
    setup = run.import_samples()
    if run.workload == "fit-medium":
        headline, extra = fit_medium(run, rows)
    else:
        headline, extra = spectral_large(run, rows)
    os.remove(log_path)

    attempted, failed = run.attempted(), run.failed()
    extra["error_rate"] = (failed / attempted, "ratio")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **headline,
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return {
        "shape": {**shape, "raw_rows": rows},
        "metrics": metrics,
        "extra": extra,
        "setup_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "problems": run.problems(),
        "op_times": run.op_times,
        "fingerprints": run.fingerprints[0] if run.fingerprints else {},
        "details": run.extra,
    }
