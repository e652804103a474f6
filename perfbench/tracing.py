"""In-memory spans around the calls into each waveletcf module.

The program itself has no spans yet, so the benchmark wraps the public
functions from outside, at the binding each caller actually looks up:
`waveletcf.train` imported `forward`, `evaluate`, `split` and `score_user`
by name, so those names are wrapped there as well as in their home module.
Two bindings of one function share a span name, except `train.evaluate`
(per-epoch validation), which stays apart from `evaluate.evaluate` (the
report). Wrappers are installed only for traced operations and removed
afterwards, so untraced operations run the original functions.
"""

import contextlib
import functools
import importlib
import os
import time
import tracemalloc

# (module, attribute, span name); a dotted attribute names a class method
WRAPPED = (
    ("waveletcf.config", "resolve", "config.resolve"),
    ("waveletcf.ingest", "load_interactions", "ingest.load_interactions"),
    ("waveletcf.ingest", "filter_by_activity", "ingest.filter_by_activity"),
    ("waveletcf.ingest", "persist", "ingest.persist"),
    ("waveletcf.ingest", "load_canonical", "ingest.load_canonical"),
    ("waveletcf.ingest", "split", "ingest.split"),
    ("waveletcf.train", "split", "ingest.split"),
    ("waveletcf.ingest", "dataset_hash", "ingest.dataset_hash"),
    ("waveletcf.graph", "build_adjacency", "graph.build_adjacency"),
    ("waveletcf.graph", "build_laplacian", "graph.build_laplacian"),
    ("waveletcf.graph", "SparseSymMatrix.matvec", "graph.matvec"),
    ("waveletcf.spectral", "eigensolve", "spectral.eigensolve"),
    ("waveletcf.spectral", "boxcox_fit", "spectral.boxcox_fit"),
    ("waveletcf.spectral", "filter_response", "spectral.filter_response"),
    ("waveletcf.model", "filter_response", "spectral.filter_response"),
    ("waveletcf.spectral", "build_wavelet_pair", "spectral.build_wavelet_pair"),
    ("waveletcf.spectral", "save_spectral_cache", "spectral.save_spectral_cache"),
    ("waveletcf.spectral", "load_spectral_cache", "spectral.load_spectral_cache"),
    ("waveletcf.model", "PropagationOperator.__init__", "model.PropagationOperator"),
    ("waveletcf.model", "forward", "model.forward"),
    ("waveletcf.train", "forward", "model.forward"),
    ("waveletcf.model", "propagate_layer", "model.propagate_layer"),
    ("waveletcf.model", "sigmoid", "model.sigmoid"),
    ("waveletcf.model", "score_user", "model.score_user"),
    ("waveletcf.train", "score_user", "model.score_user"),
    ("waveletcf.model", "save_checkpoint", "model.save_checkpoint"),
    ("waveletcf.model", "load_checkpoint", "model.load_checkpoint"),
    ("waveletcf.train", "fit", "train.fit"),
    ("waveletcf.train", "sample_triples", "train.sample_triples"),
    ("waveletcf.train", "bpr_loss", "train.bpr_loss"),
    ("waveletcf.train", "backward", "train.backward"),
    ("waveletcf.train", "adam_step", "train.adam_step"),
    ("waveletcf.train", "evaluate", "train.evaluate"),
    ("waveletcf.evaluate", "evaluate", "evaluate.evaluate"),
    ("waveletcf.evaluate", "topk", "evaluate.topk"),
    ("waveletcf.bundles", "save_bundle", "bundles.save_bundle"),
    ("waveletcf.bundles", "load_bundle", "bundles.load_bundle"),
)


def _bundle_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _psi_density(args, result):
    n = result.psi.n
    return {"density": result.psi.nnz / float(n * n)}


# counters recorded on a span from the call's arguments and result
EXTRAS = {
    "bundles.save_bundle": _bundle_bytes,
    "bundles.load_bundle": _bundle_bytes,
    "spectral.build_wavelet_pair": _psi_density,
}


class Tracer:
    """Collects spans (name, start, end, parent, run id, extras) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = None

    @contextlib.contextmanager
    def span(self, name):
        """Time the enclosed block as one span; yields its extras dict."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as extras:
                result = fn(*args, **kwargs)
                if extra is not None:
                    extras.update(extra(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every entry of WRAPPED for the duration of one operation."""
        self.run_id = run_id
        undo = []
        try:
            for module_name, attr, name in WRAPPED:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name))
            yield
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)
            self.run_id = None

    @contextlib.contextmanager
    def cli_stage(self, stage):
        """Span for one `waveletcf.cli.main` call."""
        with self.span(f"cli.{stage}"):
            yield

    def records(self):
        """Spans as dicts, ready to be written out as JSON lines."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, **x}
            for n, s, e, p, r, x in self.spans
        ]


class MemoryPeaks:
    """Peak memory each CLI stage allocates, measured with tracemalloc.

    tracemalloc counts numpy buffers as well as Python objects, and a
    stage's peak is taken above what was held when it started. The
    process's ru_maxrss never drops, so it cannot tell stages apart.
    tracemalloc slows allocation-heavy Python code several-fold, so it
    runs in a repetition of its own, never in one whose spans are timed.
    """

    def __init__(self):
        self.peaks = {}  # "cli.<stage>" -> MiB

    @contextlib.contextmanager
    def installed(self):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    @contextlib.contextmanager
    def cli_stage(self, stage):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            self.peaks[f"cli.{stage}"] = (peak - held) / 2**20


def summarize(spans, runs):
    """Per-name busy time, self time, calls and counters, per operation.

    Self time is a span's duration minus its direct children's durations
    (spans nest strictly in this single-threaded program). Busy times
    and counts are divided by `runs`, the number of traced operations.
    """
    stats = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    matvecs_in = {}
    for index, (name, start, end, parent, _, extras) in enumerate(spans):
        s = stats.setdefault(
            name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0}
        )
        s["s"] += end - start
        s["self_s"] += end - start - child_time[index]
        s["calls"] += 1
        s["bytes"] += extras.get("bytes", 0)
        if "density" in extras:
            s["density"] = extras["density"]
        if name == "graph.matvec" and parent is not None:
            matvecs_in[spans[parent][0]] = matvecs_in.get(spans[parent][0], 0) + 1
    for name, s in stats.items():
        for key in ("s", "self_s", "calls", "bytes"):
            s[key] /= runs
        if name in matvecs_in:
            s["matvecs"] = matvecs_in[name] / runs
    return stats
