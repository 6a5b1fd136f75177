"""Span tracing of the jointprune modules, wrapped from outside.

``Tracer.install`` replaces every public function and public method of the
traced modules with a wrapper that records a span (name, start, end,
parent) in memory.  Names imported into another module (``pipeline``
calling ``network.loss_and_backward``, for instance) are rebound to the same
wrapper, so every call path is covered.  Nothing under ``src/`` changes,
and an untraced run installs nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

from jointprune import checkpoint, layers, metrics, network, optim, pipeline, sparsity

TRACED_MODULES = (layers, sparsity, network, optim, pipeline, metrics, checkpoint)

# layer class -> per-layer metric stem
LAYER_STEMS = {"MaxPool2d": "layers.maxpool", "AvgPool2d": "layers.avgpool",
               "Conv2d": "layers.conv2d", "LeakyReLU": "layers.leaky_relu",
               "Dense": "layers.fc"}
OTHER_LAYERS = ("ReLU", "Dropout", "Flatten", "SkipSave", "SkipAdd")


class Tracer:
    """In-memory span recorder; one thread, nested calls form a stack."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = []
        self.enabled = False
        self.counts = defaultdict(float)

    def open(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counts, args, out)
            return out
        return traced

    def install(self):
        """Wrap the public functions and methods of every traced module."""
        replaced = {}
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replaced[obj] = self._wrap(obj, name, OBSERVERS.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        for mod in TRACED_MODULES:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def mark(self):
        return len(self.starts)

    def dump(self, path, rounds):
        """Write the spans of each traced round as JSON: one list per round."""
        doc = [{"round": r, "spans": [
            {"name": self.names[i], "start": self.starts[i], "end": self.ends[i],
             "parent": self.parents[i]} for i in range(lo, hi)]}
            for r, (lo, hi) in enumerate(rounds)]
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _k(rate, n):
    return min(n, max(1, math.ceil(rate * n)))


def _observe_topk(counts, args, mask):
    acts, rate = args[0], args[1]
    b = acts.shape[0]
    mag = np.abs(acts).reshape(b, -1)
    keep = mask.reshape(b, -1) != 0
    k = _k(rate, mag.shape[1])
    counts["topk_elems"] += acts.size
    counts["topk_rows"] += b
    if k < mag.shape[1]:
        cut = np.where(keep, mag, np.inf).min(axis=1, keepdims=True)
        # surplus ties: more elements at or above the cut than winners
        counts["tie_rows"] += int(((mag >= cut).sum(axis=1) > k).sum())


def _observe_predicted(counts, args, mask):
    acts, rate = args[0], args[1]
    b = acts.shape[0]
    realized = (mask.reshape(b, -1) != 0).sum(axis=1)
    k = _k(rate, acts[0].size)
    counts["pred_rows"] += b
    counts["pred_within20"] += int((np.abs(realized - k) <= 0.2 * k).sum())


OBSERVERS = {"sparsity.select_winners_batch": _observe_topk,
             "sparsity.predicted_mask_batch": _observe_predicted}


def self_times(tr, lo, hi):
    """Per-span duration and self time (duration minus direct children)."""
    start = np.asarray(tr.starts[lo:hi])
    dur = np.asarray(tr.ends[lo:hi]) - start
    parent = np.asarray(tr.parents[lo:hi]) - lo
    child = np.zeros_like(dur)
    inside = parent >= 0
    np.add.at(child, parent[inside], dur[inside])
    return dur, dur - child, parent


def self_time_table(tr, lo, hi, round_s):
    """Rows (name, calls, self seconds) that sum to the round's wall-clock."""
    dur, own, parent = self_times(tr, lo, hi)
    rows = defaultdict(lambda: [0, 0.0])
    for i, name in enumerate(tr.names[lo:hi]):
        rows[name][0] += 1
        rows[name][1] += own[i]
    top = float(dur[parent < 0].sum())
    table = sorted(((n, c, t) for n, (c, t) in rows.items()), key=lambda r: -r[2])
    table.append(("(benchmark glue outside spans)", 0, round_s - top))
    return table


def layer_metrics(tr, lo, hi, counts):
    """Per-layer metrics of one traced round (spans lo..hi, its counters)."""
    names = tr.names[lo:hi]
    dur, own, parent = self_times(tr, lo, hi)
    total = defaultdict(float)
    calls = defaultdict(int)
    own_by = defaultdict(float)
    for i, name in enumerate(names):
        total[name] += dur[i]
        own_by[name] += own[i]
        calls[name] += 1

    def t(*span_names):
        return float(sum(total[n] for n in span_names))

    def parent_name(i):
        return names[parent[i]] if parent[i] >= 0 else ""

    out = {}
    for cls, stem in LAYER_STEMS.items():
        out[f"{stem}.fwd_s"] = t(f"layers.{cls}.forward")
        out[f"{stem}.bwd_s"] = t(f"layers.{cls}.backward")
    out["layers.other_s"] = t(*(f"layers.{c}.{m}" for c in OTHER_LAYERS
                                for m in ("forward", "backward")))
    out["sparsity.topk_s"] = t("sparsity.select_winners_batch")
    out["sparsity.topk_calls"] = calls["sparsity.select_winners_batch"]
    out["sparsity.topk_elems"] = int(counts["topk_elems"])
    out["sparsity.tie_rows_frac"] = counts["tie_rows"] / max(1, counts["topk_rows"])
    out["sparsity.predicted_s"] = t("sparsity.predicted_mask_batch")
    out["sparsity.predicted_k_within20_frac"] = (
        counts["pred_within20"] / max(1, counts["pred_rows"]))
    out["network.forward_self_s"] = float(own_by["network.Network.forward"])
    out["network.backward_self_s"] = float(own_by["network.Network.backward"])
    out["network.forward_calls"] = calls["network.Network.forward"]
    out["optim.step_s"] = t("optim.Optimizer.step")
    out["optim.step_calls"] = calls["optim.Optimizer.step"]

    # a train step: loss_and_backward plus the optimizer step that follows it
    steps = []
    for i, name in enumerate(names):
        if name == "network.loss_and_backward" and parent_name(i) == "pipeline.run_epoch":
            for j in range(i + 1, len(names)):
                if parent[j] == parent[i] and names[j] == "optim.Optimizer.step":
                    steps.append((tr.ends[lo + j] - tr.starts[lo + i]) * 1e3)
                    break
    out["pipeline.train_step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    out["pipeline.train_step_ms_p95"] = float(np.percentile(steps, 95)) if steps else 0.0

    bench_eval = sum(dur[i] for i, n in enumerate(names)
                     if n == "pipeline.evaluate" and parent_name(i).startswith("bench."))
    out["pipeline.evaluate_s"] = float(bench_eval)
    jp = [i for i, n in enumerate(names) if n == "pipeline.joint_finetune"]
    jp_val = sum(dur[i] for i, n in enumerate(names)
                 if n == "pipeline.evaluate" and parent[i] in jp)
    out["pipeline.val_share"] = float(jp_val / max(1e-12, sum(dur[i] for i in jp)))
    out["pipeline.prune_to_targets_s"] = t("pipeline.prune_to_targets")
    out["pipeline.self_s"] = float(sum(v for n, v in own_by.items() if n.startswith("pipeline.")))
    out["metrics.count_effective_macs_s"] = t("metrics.count_effective_macs")
    out["checkpoint.save_s"] = t("checkpoint.save_checkpoint")
    out["checkpoint.load_s"] = t("checkpoint.load_checkpoint")
    return out
