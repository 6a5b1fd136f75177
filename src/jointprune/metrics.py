"""Effective-MAC accounting, sparsity stats, CSV reports and the fc
condensation benchmark.

A MAC is counted as effective iff its input activation is nonzero AND its
weight survives pruning.  Pooling windows, bias adds and mask-selection
comparisons are not MACs and are excluded.  Dense counts use batch size 1.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _replacing
from .errors import ConfigError, JointPruneError
from .fields import AT_LEAST_ONE, RATE, check
from .layers import _padded, _taps, build_layer, fc
from .sparsity import WinnerRateConfig

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None


def weight_layer_names(net):
    """Stable display names for the weight layers: conv1, conv2, ..., fc1, ..."""
    names, counts = {}, {"fc": 0, "conv": 0}
    for i, _ in net.weight_params():
        prefix = "fc" if net.layers[i].kind == "fc" else "conv"
        counts[prefix] += 1
        names[i] = f"{prefix}{counts[prefix]}"
    return names


@dataclass
class MacLayerRow:
    name: str
    dense_macs: int
    effective_macs: float
    acti_density_in: float
    weight_density: float

    @property
    def mac_percent(self):
        return 100.0 * self.effective_macs / self.dense_macs


@dataclass
class MacReport:
    rows: list = field(default_factory=list)

    @property
    def total_dense(self):
        return sum(r.dense_macs for r in self.rows)

    @property
    def total_effective(self):
        return sum(r.effective_macs for r in self.rows)

    @property
    def mac_percent(self):
        return 100.0 * self.total_effective / self.total_dense

    @property
    def weight_density(self):
        kept = sum(r.weight_density * r.dense_macs for r in self.rows)
        return kept / self.total_dense

    def table(self):
        """(header, rows) for :func:`emit_report`; a Total row closes a
        non-empty report."""
        rows = [
            [r.name, r.dense_macs, f"{r.effective_macs:.6f}", f"{r.acti_density_in:.8f}",
             f"{r.weight_density:.8f}", f"{r.mac_percent:.6f}"]
            for r in self.rows
        ]
        if self.rows:
            rows.append(
                ["Total", self.total_dense, f"{self.total_effective:.6f}", "",
                 f"{self.weight_density:.8f}", f"{self.mac_percent:.6f}"]
            )
        return MAC_HEADER, rows


EVAL_BATCH = 500  # samples per evaluation forward


def _hits(logits, labels):
    return int((logits.argmax(axis=1) == labels).sum())


def nonzero_counts(net, images, layers, labels=None, what="batch"):
    """The one eval walk: forwards of ``EVAL_BATCH`` images with the net's
    masks.  Returns per layer of ``layers`` (-1: the input) the int64 count of
    samples in which each position of its output is nonzero, summed over the
    forwards, and the top-1 hits on ``labels``; empty ``images`` raise."""
    if len(images) == 0:
        raise ConfigError(f"cannot evaluate on an empty {what}")
    counts, hits = dict.fromkeys(layers, 0), 0
    keep = [i for i in counts if i >= 0]
    for start in range(0, len(images), EVAL_BATCH):
        # a contiguous batch: a cropped split is a strided view of its images
        x = np.ascontiguousarray(images[start:start + EVAL_BATCH], dtype=net.dtype)
        result = net.forward(x, mode="eval", keep=keep)
        for i in counts:
            nz = np.count_nonzero(x if i < 0 else result.post_mask[i], axis=0)
            counts[i] = counts[i] + nz.astype(np.int64, copy=False)
        if labels is not None:
            hits += _hits(result.logits, labels[start:start + EVAL_BATCH])
    return counts, hits


# Pair counts are linear in the per-position counts, so both counters count
# a layer's pairs once, in exact int64, from its input's summed count map.


def _effective_macs_fc(nz, wmask):
    # pairs (nonzero input i) x (unpruned weight (i, o)), summed over the samples
    return int(nz @ np.count_nonzero(wmask, axis=1))


def _effective_macs_conv(nz, layer, wmask):
    g = layer.spec.geometry
    k, s, p = g["kernel"], g["stride"], g["pad"]
    _, oh, ow = layer.out_shape(nz.shape)
    # each weight element (c, i, j) pairs with the counts that its window
    # tap (i, j) of the zero-padded counts holds for channel c
    taps = _taps(_padded(nz[..., None], p, 0), k, s, oh, ow)
    per_tap = np.stack([t.sum(axis=(1, 2, 3)) for t in taps], axis=1)
    per_elem = np.count_nonzero(wmask.reshape(g["out_ch"], -1), axis=0)
    return int(per_elem @ per_tap.ravel())


def count_effective_macs(net, batch):
    """Effective MACs of a sample batch with the net's masks active: the
    nonzero-input x unpruned-weight pairs of each fc/conv layer over the
    :func:`nonzero_counts` walk, averaged over the batch.  A layer's dense
    count is its weight count times its output positions (one for an fc)."""
    names = weight_layer_names(net)
    counts, _ = nonzero_counts(net, batch, [i - 1 for i in names])
    n = len(batch)
    report = MacReport()
    for i, name in names.items():
        layer, nz = net.layers[i], counts[i - 1]
        w = layer.params[0]
        wmask = w.mask if w.mask is not None else np.ones_like(w.value)
        pairs = (_effective_macs_fc(nz, wmask) if layer.kind == "fc"
                 else _effective_macs_conv(nz, layer, wmask))
        report.rows.append(MacLayerRow(
            name=name, dense_macs=w.value.size * math.prod(net.layer_shapes[i][1:]),
            effective_macs=pairs / n, acti_density_in=int(nz.sum()) / (n * nz.size),
            weight_density=w.density()))
    return report


@dataclass
class SparsityStats:
    """Measured nonzero-activation fractions of the masked-layer outputs
    plus the network output, weighted by activation count."""

    per_layer: list = field(default_factory=list)  # (layer_index, size, nonzero_frac)

    @property
    def activation_percent(self):
        total = sum(size for _, size, _ in self.per_layer)
        nnz = sum(size * frac for _, size, frac in self.per_layer)
        return 100.0 * nnz / total

    def table(self):
        return SPARSITY_HEADER, [[i, size, f"{frac:.8f}"] for i, size, frac in self.per_layer]


# -- fc condensation benchmark ---------------------------------------------


@dataclass
class SpeedupRecord:
    n_in: int
    n_out: int
    winner_rate: float
    time_original: float  # seconds, median
    time_select: float
    time_condensed_mac: float
    trials: int
    unstable: bool

    @property
    def time_prune_plus_mac(self):
        return self.time_select + self.time_condensed_mac

    @property
    def speedup(self):
        return self.time_original / self.time_prune_plus_mac

    def table(self):
        return SPEEDUP_HEADER, [
            [self.n_in, self.n_out, self.winner_rate, f"{self.time_original:.9f}",
             f"{self.time_select:.9f}", f"{self.time_condensed_mac:.9f}", self.trials,
             int(self.unstable), f"{self.speedup:.4f}"]
        ]


def _median_times(fn, trials, warmup):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    med = statistics.median(samples)
    mean = statistics.fmean(samples)
    spread = statistics.pstdev(samples)
    return med, spread > 0.2 * mean


def bench_condensed_fc(n_in, n_out, rate, trials=100, warmup=10, seed=0):
    """Batch-1 eval ``Dense.forward`` of an ``n_in`` x ``n_out`` layer on a
    dense sample, against winner selection (``WinnerRateConfig.mask``, then
    ``x * t``, as ``Network.forward`` masks) plus that forward on the masked
    sample.  Single thread, median of ``trials`` runs after warm-up; the
    masked forward is checked against ``x @ w + b`` before timing.
    """
    check("trials", trials, int, **AT_LEAST_ONE)
    cfg = WinnerRateConfig(per_layer_rate={0: check("winner rate", rate, float, **RATE)})
    rng = np.random.default_rng(seed)
    layer = build_layer(fc(n_in, n_out), rng, np.float32)
    a = rng.standard_normal((1, n_in)).astype(np.float32)

    def run_select():
        t = cfg.mask(0, a)
        return a if t is None else a * t

    x = run_select()
    want = x @ layer.w.value + layer.b.value
    scale = max(float(np.abs(want).max()), 1e-6)
    err = float(np.abs(layer.forward(x) - want).max()) / scale
    if err > 1e-5:
        raise JointPruneError(f"condensed fc output mismatch, rel err {err:.2e}")

    with nullcontext() if threadpool_limits is None else threadpool_limits(limits=1):
        t_orig, u1 = _median_times(lambda: layer.forward(a), trials, warmup)
        t_sel, u2 = _median_times(run_select, trials, warmup)
        t_mac, u3 = _median_times(lambda: layer.forward(x), trials, warmup)
    return SpeedupRecord(n_in, n_out, rate, time_original=t_orig, time_select=t_sel,
                         time_condensed_mac=t_mac, trials=trials, unstable=u1 or u2 or u3)


# -- CSV emission -----------------------------------------------------------

MAC_HEADER = ["layer", "dense_macs", "effective_macs", "acti_density_in",
              "weight_density", "mac_percent"]
SPARSITY_HEADER = ["layer_index", "size", "nonzero_frac"]
SPEEDUP_HEADER = ["n_in", "n_out", "winner_rate", "time_original_s",
                  "time_select_s", "time_condensed_mac_s", "trials", "unstable", "speedup"]


def emit_report(table, path):
    """Write a ``(header, rows)`` table, as every report's ``table()``
    returns it, as CSV with a stable column order.  As a checkpoint, it is
    written atomically: a write that fails leaves the old report."""
    header, rows = table
    try:
        with _replacing(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([str(c) for c in row])
    except OSError as e:
        raise JointPruneError(f"cannot write report to {path}: {e}") from None
