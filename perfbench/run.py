"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload fit-medium --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from that
checkout's `src`. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A readable
summary goes to stderr, and the full result (provenance, workload
metrics, fingerprints, and with `--trace 1` every span) is written under
`.perfbench/` in the checkout. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = ("setup_s", "op_p50_ms", "hot_stage_units_per_s", "peak_rss_mb")

# per-layer metric -> unit; the name is "<span>.<field>" (see tracing.py)
PER_LAYER = {}
for _stage in ("ingest", "spectral", "train", "evaluate", "recommend"):
    PER_LAYER[f"cli.{_stage}.s"] = "s"
    PER_LAYER[f"cli.{_stage}.self_s"] = "s"
    PER_LAYER[f"cli.{_stage}.peak_alloc_mb"] = "MB"
PER_LAYER.update({
    "config.resolve.s": "s",
    "ingest.load_interactions.s": "s",
    "ingest.filter_by_activity.s": "s",
    "ingest.persist.s": "s",
    "ingest.load_canonical.s": "s",
    "ingest.load_canonical.calls": "count",
    "ingest.split.s": "s",
    "ingest.split.calls": "count",
    "ingest.dataset_hash.s": "s",
    "ingest.dataset_hash.calls": "count",
    "graph.build_adjacency.s": "s",
    "graph.build_laplacian.s": "s",
    "graph.matvec.calls": "count",
    "spectral.eigensolve.s": "s",
    "spectral.eigensolve.matvecs": "count",
    "spectral.boxcox_fit.s": "s",
    "spectral.filter_response.s": "s",
    "spectral.build_wavelet_pair.s": "s",
    "spectral.wavelet_pair.density": "ratio",
    "spectral.save_spectral_cache.s": "s",
    "spectral.load_spectral_cache.s": "s",
    "model.save_checkpoint.s": "s",
    "model.load_checkpoint.s": "s",
    "model.forward.s": "s",
    "model.forward.calls": "count",
    "model.propagate_layer.s": "s",
    "model.propagate_layer.calls": "count",
    "model.sigmoid.s": "s",
    "model.PropagationOperator.s": "s",
    "train.fit.s": "s",
    "train.fit.self_s": "s",
    "train.sample_triples.s": "s",
    "train.bpr_loss.s": "s",
    "train.backward.s": "s",
    "train.adam_step.s": "s",
    "train.adam_step.calls": "count",
    "train.evaluate.s": "s",
    "train.evaluate.calls": "count",
    "evaluate.evaluate.s": "s",
    "evaluate.evaluate.calls": "count",
    "evaluate.topk.s": "s",
    "evaluate.topk.calls": "count",
    "model.score_user.s": "s",
    "model.score_user.calls": "count",
    "bundles.save_bundle.s": "s",
    "bundles.save_bundle.calls": "count",
    "bundles.save_bundle.bytes": "bytes",
    "bundles.load_bundle.s": "s",
    "bundles.load_bundle.calls": "count",
    "bundles.load_bundle.bytes": "bytes",
    "evaluate.recall_at_20": "ratio",
    "evaluate.ndcg_at_20": "ratio",
    "trace.overhead_s": "s",
})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-medium", "spectral-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """One BLAS thread, set before numpy loads, and no stray config."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for key in [k for k in os.environ if k.startswith("WAVELETCF_")]:
        del os.environ[key]


def import_program():
    """Import waveletcf from this checkout's src, and prove it did."""
    sys.path.insert(0, str(SRC))
    import waveletcf

    location = Path(waveletcf.__file__).resolve()
    if not location.is_relative_to(SRC):
        raise SystemExit(f"error: waveletcf imported from {location}, not {SRC}")


def provenance():
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "waveletcf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def layer_metrics(run, result):
    """Every PER_LAYER metric; a layer the workload never called reads 0."""
    by_name = run.layer_stats()
    stats = dict(by_name)
    for name, mb in run.memory.peaks.items():
        stats.setdefault(name, {})["peak_alloc_mb"] = mb
    if "spectral.build_wavelet_pair" in stats:
        stats["spectral.wavelet_pair"] = stats["spectral.build_wavelet_pair"]
    stats["evaluate"] = {
        "recall_at_20": run.extra.get("recall_at_20", 0.0),
        "ndcg_at_20": run.extra.get("ndcg_at_20", 0.0),
    }
    traced = [s for t, s in run.op_times if t]
    plain = [s for t, s in run.op_times if not t]
    overhead = statistics.median(traced) - statistics.median(plain) if traced else 0.0
    stats["trace"] = {"overhead_s": overhead}
    out = {}
    for name, unit in PER_LAYER.items():
        span, field = name.rsplit(".", 1)
        out[name] = (float(stats.get(span, {}).get(field, 0.0)), unit)
    result["top_self_s"] = sorted(
        ((s["self_s"], n) for n, s in by_name.items()), reverse=True
    )[:8]
    return out


def baseline_check(workload, seed, prints):
    path = HERE / "baseline.json"
    if not path.exists():
        return "no baseline file"
    recorded = json.loads(path.read_text())["fingerprints"].get(workload, {})
    expected = recorded.get(str(seed))
    if expected is None:
        return "no baseline for this seed"
    differing = sorted(k for k in expected if prints.get(k) != expected[k])
    return "match" if not differing else f"differ: {', '.join(differing)}"


def report(workload, args, result, metrics):
    lines = [
        f"perfbench {workload} seed={args.seed} trace={args.trace}: "
        f"attempted {result['attempted']}, failed {result['failed']}",
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        lines.append("  workload metrics:")
        for name, (value, unit) in result["extra"].items():
            lines.append(f"  {name:34s} {value:14.6g} {unit}")
    else:
        lines.append("  largest self times per traced operation:")
        for value, name in result["top_self_s"]:
            lines.append(f"  {name:34s} {value:14.6g} s")
    for key, value in sorted(result["fingerprints"].items()):
        lines.append(f"  sha256 {key:27s} {value}")
    lines.append(f"  fingerprints vs baseline: {result['baseline_fingerprints']}")
    for problem in result["problems"]:
        lines.append(f"  FAILED {problem}")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "waveletcf" / "cli.py").is_file():
        print(f"error: no waveletcf sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import_program()
    import workloads

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(args.workload, str(workdir), args.seed, args.seconds,
                        bool(args.trace), str(SRC))
    result = workloads.run_workload(run)
    result["provenance"] = provenance()
    result["baseline_fingerprints"] = baseline_check(
        args.workload, args.seed, result["fingerprints"])
    if args.trace:
        metrics = layer_metrics(run, result)
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for record in run.tracer.records():
                fh.write(json.dumps(record) + "\n")
    else:
        metrics = {name: result["metrics"][name] for name in END_TO_END}
    result["reported"] = metrics
    (workdir / "result.json").write_text(json.dumps(result, indent=1, default=str))
    report(args.workload, args, result, metrics)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
