"""Spans around the public entry points of radden's modules, recorded from
outside the program.

`Tracer.installed()` replaces each traced function, in every radden module
that holds a reference to it, by a wrapper that records a span (name, start,
end, parent) and the counts of work the call did; on exit the originals are
put back.  Spans stay in memory until `write_spans` saves them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time


def _columns(x):
    shape = getattr(x, "shape", ())
    return shape[1] if len(shape) == 2 else 1


def _count_generate_pair(args, kwargs, result):
    return {"columns": result[0].count}


def _count_ista(args, kwargs, result):
    return {"columns": _columns(args[1]), "sweeps": len(result.objectives) - 1}


def _count_train(args, kwargs, result):
    return {"outer_iterations": len(result[1].objectives)}


def _count_infer(args, kwargs, result):
    from radden.autoencoders import inference_flops
    cols = _columns(args[1])
    return {"columns": cols, "macs": inference_flops(args[0]) * cols}


def _count_ssim_stack(args, kwargs, result):
    return {"columns": len(result)}


# (module, attribute, span name, counter); dotted attributes are methods,
# patched on their class.
TARGETS = [
    ("radden.bench.datasets", "generate_pair", "dataset.generate_pair", _count_generate_pair),
    ("radden.dataset.signatures", "radar_returns", "dataset.radar_returns", None),
    ("radden.dataset.channel", "channel_response", "dataset.channel_response", None),
    ("radden.dataset.corrupt", "add_noise", "dataset.add_noise", None),
    ("radden.dataset.corrupt", "add_point_clutter", "dataset.add_point_clutter", None),
    ("radden.dataset.corrupt", "shuffle_labels", "dataset.shuffle_labels", None),
    ("radden.sparse_solvers", "ista_solve", "sparse_solvers.ista_solve", _count_ista),
    ("radden.sparse_solvers", "lipschitz_bound", "sparse_solvers.lipschitz_bound", None),
    ("radden.sparse_solvers", "solve_least_squares", "sparse_solvers.ridge", None),
    ("radden.sparse_solvers", "RidgeDesign.__init__", "sparse_solvers.ridge", None),
    ("radden.sparse_solvers", "RidgeDesign.solve", "sparse_solvers.ridge.solve", None),
    ("radden.autoencoders", "train_dae", "autoencoders.train.dae", _count_train),
    ("radden.autoencoders", "train_sparse_dae", "autoencoders.train.sparse_dae", _count_train),
    ("radden.autoencoders", "train_stacked_sdae", "autoencoders.train.stacked_sdae", _count_train),
    ("radden.autoencoders", "objective_value", "autoencoders.objective_value", None),
    ("radden.autoencoders", "infer", "autoencoders.infer", _count_infer),
    ("radden.baselines", "svd_denoise", "baselines.svd_denoise", None),
    ("radden.baselines", "wavelet_denoise", "baselines.wavelet_denoise", None),
    ("radden.metrics", "ssim_stack", "metrics.ssim_stack", _count_ssim_stack),
    ("radden.metrics", "nmse", "metrics.nmse", None),
    ("radden.bench.sweep", "evaluate_grid_point", "bench.evaluate_grid_point", None),
]

# Layer spans whose time is reported inclusive of their children ("<name>.s");
# the remaining layer metrics are self times.
INCLUSIVE = ["dataset.generate_pair", "dataset.radar_returns",
             "dataset.channel_response", "dataset.add_noise",
             "dataset.add_point_clutter", "dataset.shuffle_labels",
             "sparse_solvers.lipschitz_bound", "sparse_solvers.ridge",
             "autoencoders.train.dae", "autoencoders.train.sparse_dae",
             "autoencoders.train.stacked_sdae", "autoencoders.objective_value",
             "autoencoders.infer", "baselines.svd_denoise",
             "baselines.wavelet_denoise", "metrics.ssim_stack", "metrics.nmse"]
SELF = ["sparse_solvers.ista_solve", "autoencoders.train.dae",
        "autoencoders.train.sparse_dae", "autoencoders.train.stacked_sdae",
        "bench.evaluate_grid_point"]
CALLS = ["sparse_solvers.ista_solve", "sparse_solvers.lipschitz_bound",
         "sparse_solvers.ridge.solve", "autoencoders.infer",
         "baselines.svd_denoise", "baselines.wavelet_denoise", "metrics.nmse"]
COUNTS = [("dataset.generate_pair", "columns", "dataset.columns"),
          ("sparse_solvers.ista_solve", "columns", "sparse_solvers.ista_solve.columns"),
          ("sparse_solvers.ista_solve", "sweeps", "sparse_solvers.ista_solve.sweeps"),
          ("autoencoders.train.dae", "outer_iterations",
           "autoencoders.train.dae.outer_iterations"),
          ("autoencoders.train.sparse_dae", "outer_iterations",
           "autoencoders.train.sparse_dae.outer_iterations"),
          ("autoencoders.train.stacked_sdae", "outer_iterations",
           "autoencoders.train.stacked_sdae.outer_iterations"),
          ("autoencoders.infer", "columns", "autoencoders.infer.columns"),
          ("metrics.ssim_stack", "columns", "metrics.ssim_stack.columns")]


def _layer(name):
    """Spans of one layer share the name up to the entry point; the ridge
    solve span belongs to the ridge layer."""
    return "sparse_solvers.ridge" if name.startswith("sparse_solvers.ridge") else name


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "cost")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None
        self.cost = 0.0  # the tracer's own time around this span


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            span = self.spans[idx]
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            span.cost = time.perf_counter() - entered - (span.end - span.start)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, counter in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(original, name, counter)
                holders = [owner] if path else [
                    m for key, m in list(sys.modules.items())
                    if key.split(".")[0] == "radden"
                    and getattr(m, leaf, None) is original]
                for holder in holders:
                    setattr(holder, leaf, wrapper)
                    undo.append((holder, leaf, original))
            yield self
        finally:
            for holder, leaf, original in reversed(undo):
                setattr(holder, leaf, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "counts": s.counts}) + "\n")


def layer_metrics(spans, setup_root, op_root):
    """Per-layer seconds and counts over the spans under the two root spans
    (indices): one set-up and one operation.  Also the share of the
    operation covered by layer self time, and the tracer's own cost in it."""
    top = []  # outermost ancestor of each span; parents precede children
    for i, s in enumerate(spans):
        top.append(i if s.parent == -1 else top[s.parent])
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent != -1:
            self_s[s.parent] -= s.end - s.start
    inclusive, own, calls, counts = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if top[i] not in (setup_root, op_root):
            continue
        own[s.name] = own.get(s.name, 0.0) + self_s[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        layer = _layer(s.name)
        parent = spans[s.parent].name if s.parent != -1 else ""
        if _layer(parent) != layer:
            inclusive[layer] = inclusive.get(layer, 0.0) + (s.end - s.start)
        for key, value in (s.counts or {}).items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + value

    out = {}
    for name in INCLUSIVE:
        out[f"{name}.s"] = (inclusive.get(name, 0.0), "s")
    for name in SELF:
        out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in CALLS:
        out[f"{_layer(name)}.calls"] = (calls.get(name, 0), "count")
    for span_name, key, metric in COUNTS:
        out[metric] = (counts.get((span_name, key), 0), "count")
    infer_s = inclusive.get("autoencoders.infer", 0.0)
    macs = counts.get(("autoencoders.infer", "macs"), 0)
    out["autoencoders.infer.gmac_per_s"] = (
        macs / infer_s / 1e9 if infer_s > 0 else 0.0, "GMAC/s")

    op = spans[op_root]
    op_s = op.end - op.start
    in_op = [i for i in range(op_root + 1, len(spans)) if top[i] == op_root]
    out["trace.op_s"] = (op_s, "s")
    out["trace.layer_share"] = (sum(self_s[i] for i in in_op) / op_s, "ratio")
    out["trace.overhead_s"] = (sum(spans[i].cost for i in in_op), "s")
    return out
