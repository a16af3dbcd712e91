"""Span recorder for the traced benchmark run.

The recorder times the package from outside: it replaces the public
functions of the osid modules with wrappers that open and close a span, and
puts the originals back afterwards.  The package calls across modules
through module attributes (``gmm_mod.mean_log_likelihood`` and so on), so a
wrapper sees every call.  Spans live in memory and are written out once, at
the end of the run.  Nothing is wrapped while the end-to-end metrics are
measured.

Each span holds its name, start, end, parent, the id of the trial or CLI
command it belongs to (the index of its outermost span) and the benchmark
phase it ran in.  Single-threaded use only: the parent is taken from one
stack, which holds because the benchmark leaves ``threads`` at its default.
"""

import csv
import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "dataset", "features", "gmm", "mlp", "openset", "metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    group: int = -1
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; ``phase`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.phase = ""
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        group = self.spans[parent].group if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               group=group, phase=self.phase))
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "name", "start", "end", "parent", "group",
                             "phase"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start), repr(s.end), s.parent,
                                 s.group, s.phase])


# --- per-function annotations ------------------------------------------------
#
# An annotator sees the bound arguments and the result of one call and stores
# what the derived metrics need on the span.  Objects used as identity keys
# are kept referenced by the span, so their ids cannot be reused while the
# spans are alive.

def _rows(x):
    return int(np.shape(getattr(x, "vectors", x))[0])


def _ann_mean_log_likelihood(span, args, result):
    model, X = args["model"], args["X"]
    span.attrs.update(rows=_rows(X), components=model.num_components,
                      key=(X, model))


def _ann_mean_log_posterior(span, args, result):
    span.attrs.update(key=(args["X"], args["net"]))


def _ann_extract_features(span, args, result):
    clip, cfg = args["clip"], args["cfg"]
    length = int(round(cfg.window_ms * clip.sample_rate / 1000.0))
    hop = int(round(length * (1.0 - cfg.overlap_fraction)))
    span.attrs.update(audio_s=clip.samples.size / clip.sample_rate,
                      kept=len(result),
                      frames=(clip.samples.size - length) // hop + 1)


def _layer_macs(net):
    dims = net.layer_dims
    return [a * b for a, b in zip(dims[:-1], dims[1:])]


def _ann_forward_batch(span, args, result):
    rows = int(np.atleast_2d(args["X"]).shape[0])
    span.attrs.update(rows=rows, flops=2 * rows * sum(_layer_macs(args["net"])))


def _ann_backward_batch(span, args, result):
    macs = _layer_macs(args["net"])
    rows = int(args["cache"]["posteriors"].shape[0])
    # weight gradients for every layer, error propagation below the top one
    span.attrs.update(flops=2 * rows * (sum(macs) + sum(macs[1:])))


ANNOTATORS = {
    "gmm.mean_log_likelihood": _ann_mean_log_likelihood,
    "openset.mean_log_posterior": _ann_mean_log_posterior,
    "features.extract_features": _ann_extract_features,
    "mlp.forward_batch": _ann_forward_batch,
    "mlp.backward_batch": _ann_backward_batch,
}


def _arguments(signature):
    """Map a call's arguments to parameter names; cheaper than Signature.bind."""
    names = list(signature.parameters)
    defaults = {k: p.default for k, p in signature.parameters.items()
                if p.default is not inspect.Parameter.empty}

    def arguments(args, kwargs):
        out = dict(defaults)
        out.update(zip(names, args))
        out.update(kwargs)
        return out
    return arguments


def _wrap(recorder, name, fn):
    signature = inspect.signature(fn)
    annotate = ANNOTATORS.get(name)
    arguments = _arguments(signature)

    if name == "gmm.em_fit":
        # Ask for the likelihood trace to count iterations; hand the caller
        # what it asked for.
        @functools.wraps(fn)
        def em_fit_wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            wanted = bound.arguments.pop("return_trace", False)
            index = recorder.open(name)
            try:
                model, trace = fn(*bound.args, **bound.kwargs, return_trace=True)
            finally:
                recorder.close(index)
            recorder.spans[index].attrs["iterations"] = len(trace)
            return (model, trace) if wanted else model
        return em_fit_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if annotate is not None:
            annotate(recorder.spans[index], arguments(args, kwargs), result)
        return result
    return wrapper


def public_functions(module):
    return [(attr, obj) for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


@contextmanager
def traced(recorder):
    """Replace the osid module attributes with span wrappers, then restore them."""
    import importlib
    saved = []
    try:
        for short in MODULES:
            module = importlib.import_module(f"osid.{short}")
            for attr, fn in public_functions(module):
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(recorder, f"{short}.{attr}", fn))
        yield recorder
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# --- derived metrics ---------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _union_length([(max(lo, s.start), min(hi, s.end))
                                        for lo, hi in kids if hi > s.start and lo < s.end])
            for s, kids in zip(spans, children)]


def _useful_frac(spans):
    """Distinct (utterance, model) pairs within a trial or command, over calls."""
    if not spans:
        return 0.0
    distinct = {(s.group, id(s.attrs["key"][0]), id(s.attrs["key"][1]))
                for s in spans}
    return len(distinct) / len(spans)


def layer_metrics(spans, evaluations, overhead_frac):
    """Per-layer metrics from the spans of one traced run.

    evaluations maps an architecture to (model evaluations, trials) counted
    by EvalCounter around the benchmark's own scoring calls.
    """
    selfs = self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(*names):
        return float(sum(s.duration for n in names for s, _ in by_name.get(n, ())))

    def self_s(name):
        return float(sum(own for _, own in by_name.get(name, ())))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s, _ in by_name.get(name, ()))

    m = {}
    for cmd in ("extract", "train_ubm", "train", "evaluate"):
        m[f"cli.cmd_{cmd}.self_s"] = (self_s(f"cli.cmd_{cmd}"), "s")
    for name in ("dataset.load_wav", "dataset.read_manifest",
                 "features.extract_features", "features.load_features",
                 "gmm.kmeans_init", "gmm.em_fit", "gmm.mean_log_likelihood",
                 "mlp.forward_batch", "mlp.backward_batch", "mlp.optimizer_step",
                 "mlp.train", "openset.load_bank", "metrics.compute_eer"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    extract_busy = busy("features.extract_features")
    audio = attr_sum("features.extract_features", "audio_s")
    frames = attr_sum("features.extract_features", "frames")
    m["features.audio_s_per_busy_s"] = (audio / extract_busy if extract_busy else 0.0, "s/s")
    m["features.vad_kept_frac"] = (
        attr_sum("features.extract_features", "kept") / frames if frames else 0.0, "ratio")
    m["gmm.em_fit.self_s"] = (self_s("gmm.em_fit"), "s")
    m["gmm.em_fit.iterations"] = (attr_sum("gmm.em_fit", "iterations"), "count")
    m["gmm.density_rows"] = (sum(s.attrs["rows"] * s.attrs["components"]
                                 for s, _ in by_name.get("gmm.mean_log_likelihood", ())),
                             "count")
    m["gmm.mean_log_likelihood.useful_frac"] = (
        _useful_frac([s for s, _ in by_name.get("gmm.mean_log_likelihood", ())]), "ratio")
    m["gmm.sample.busy_s"] = (busy("gmm.sample"), "s")
    m["gmm.io.busy_s"] = (busy("gmm.save_gmm", "gmm.load_gmm"), "s")
    m["gmm.load_gmm.calls"] = (calls("gmm.load_gmm"), "count")
    m["mlp.forward_batch.rows"] = (attr_sum("mlp.forward_batch", "rows"), "count")
    dense_busy = busy("mlp.forward_batch", "mlp.backward_batch")
    flops = attr_sum("mlp.forward_batch", "flops") + attr_sum("mlp.backward_batch", "flops")
    m["mlp.gflop_per_s"] = (flops / dense_busy / 1e9 if dense_busy else 0.0, "GFLOP/s")
    m["mlp.io.busy_s"] = (busy("mlp.save_mlp", "mlp.load_mlp"), "s")
    m["mlp.load_mlp.calls"] = (calls("mlp.load_mlp"), "count")
    for arch in ("gmm_closed_set", "subnn_open_set", "multiclass_open_set"):
        m[f"openset.{arch}.self_s"] = (self_s(f"openset.{arch}"), "s")
    for arch in ("gmm", "subnn", "multiclass"):
        evals, trials = evaluations.get(arch, (0, 0))
        m[f"openset.model_evaluations_per_trial.{arch}"] = (
            evals / trials if trials else 0.0, "count")
    subnn_posteriors = [s for s, _ in by_name.get("openset.mean_log_posterior", ())
                        if s.parent >= 0 and spans[s.parent].name == "openset.subnn_open_set"]
    m["openset.subnn_forward.useful_frac"] = (_useful_frac(subnn_posteriors), "ratio")
    m["openset.train_subnn_bank.self_s"] = (self_s("openset.train_subnn_bank"), "s")
    m["metrics.csrr.busy_s"] = (busy("metrics.csrr"), "s")
    m["metrics.trials_io.busy_s"] = (busy("metrics.write_trials", "metrics.read_trials"), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m


def predictions(spans, workload):
    """The expectations stated for each workload, checked on the traced spans.

    Returns (claim, holds, detail) triples; detail names what broke a claim.
    """
    out = []
    if workload in ("enroll", "identify"):
        timed = [s for s in spans if s.phase == "timed"]
        phase_s = sum(s.duration for s in timed if s.parent < 0)
        busy = {}
        for s in timed:
            if s.name.startswith(("features.", "dataset.")):
                busy[s.name] = busy.get(s.name, 0.0) + s.duration
        detail = ", ".join(f"{name} {seconds:.3f} s" for name, seconds in sorted(busy.items()))
        if busy:
            detail += f" of a {phase_s:.1f} s timed phase"
        out.append(("features and dataset take no time in the timed phase",
                    not busy, detail))
    names = {s.name for s in spans}
    if workload == "enroll":
        out.append(("never calls gmm.mean_log_likelihood",
                    "gmm.mean_log_likelihood" not in names, ""))
    if workload == "identify":
        called = {"gmm.em_fit", "mlp.backward_batch", "mlp.optimizer_step"} & names
        out.append(("never calls em_fit, backward_batch or optimizer_step",
                    not called, ", ".join(sorted(called))))
    return out
