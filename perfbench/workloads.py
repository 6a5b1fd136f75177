"""Synthetic inputs and the timed phase chain of each benchmark workload.

Every workload runs the same chain of pipeline entry points on a preset
network: dense training, a sensitivity sweep, joint finetuning (warm-up
plus ramped pruning), exact and predicted-threshold evaluation, a
closed-loop batch-1 client, an effective-MAC report and a checkpoint round
trip.  The workloads differ in the preset and in how much work each phase
gets, so that different layers dominate.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from jointprune import checkpoint, metrics, pipeline
from jointprune.datasets import CIFAR10_MEAN, CIFAR10_STD, DatasetSplit, center_crop
from jointprune.models import get_preset
from jointprune.sparsity import PREDICTED_THRESHOLD, WinnerRateConfig

EVAL_BATCH = 500            # pipeline.evaluate / accuracy default batch size
TRAIN_BATCH = 100
PREDICT_EPS = 0.1           # subsample rate of the predicted-threshold mode
MNIST_DENSITY = 0.19        # share of nonzero pixels in real MNIST
DENSE_EPOCHS = 2
# joint_finetune: one warm-up epoch, then two finetune epochs whose pruning
# ramp reaches the weight targets at the second
WARMUP_EPOCHS = 1
FINETUNE_EPOCHS = 2
RAMP_EPOCHS = 2
# Work per round.  b1_requests: three or more rounds pool >= 1000 for p99.
SIZES = dict(n_train=200, n_val=100, n_eval=500, b1_requests=500, macs_samples=256)
# Tiny sizes for the smoke mode: every phase and check runs, in seconds.
SMOKE_SIZES = dict(n_train=20, n_val=20, n_eval=20, b1_requests=20, macs_samples=8,
                   sweep_rates=(0.5, 1.0))
CKPT_REPEATS = 15           # per round, at least; see SERVE_SLICES
CKPT_MIN_S = 0.3            # and at least this long per round in total
# The serving phases (MAC report, batch-1 requests, checkpoint round trips)
# run in two slices per round, one before and one after the evaluations, so
# each samples the machine at more than one moment of the round.
SERVE_SLICES = 2


@dataclass(frozen=True)
class Workload:
    """What sets a workload apart; every workload runs every phase."""

    preset: str
    sweep_rates: tuple
    prune_at_setup: bool    # start from a net already pruned to its targets


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "convnet5-train": Workload("convnet5", sweep_rates=(0.3, 1.0), prune_at_setup=False),
    "leaky6-train": Workload("leaky6", sweep_rates=(0.3, 1.0), prune_at_setup=False),
    "lenet4-infer": Workload("lenet4", sweep_rates=(0.02, 0.07, 1.0), prune_at_setup=True),
}


def _smooth(z):
    """3x3 box blur over the last two axes, twice (edge-padded)."""
    for _ in range(2):
        p = np.pad(z, [(0, 0)] * (z.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
        h, w = z.shape[-2:]
        z = sum(p[..., i:i + h, j:j + w] for i in range(3) for j in range(3)) / 9.0
    return z


def mnist_like(rng, n):
    """1x28x28 images in [0,1] with ~19% nonzero pixels in a centred blob."""
    z = _smooth(rng.standard_normal((n, 28, 28)))
    yy, xx = np.mgrid[:28, :28]
    z *= np.exp(-((yy - 13.5) ** 2 + (xx - 13.5) ** 2) / (2 * 7.0 ** 2))
    density = np.clip(rng.normal(MNIST_DENSITY, 0.03, n), 0.1, 0.3)
    flat = z.reshape(n, -1)
    ranks = np.sort(flat, axis=1)
    thr = ranks[np.arange(n), np.round((1 - density) * flat.shape[1]).astype(int) - 1]
    top = ranks[:, -1]
    img = np.clip(1.5 * (flat - thr[:, None]) / (top - thr)[:, None], 0.0, 1.0)
    return img.reshape(n, 1, 28, 28).astype(np.float32)


def cifar_like(rng, n):
    """Dense 3x32x32 byte-quantised images, normalised with the CIFAR-10 stats."""
    base = np.repeat(np.repeat(rng.random((n, 3, 8, 8)), 4, axis=2), 4, axis=3)
    img = np.clip(_smooth(base) + 0.1 * rng.standard_normal((n, 3, 32, 32)), 0.0, 1.0)
    img = np.round(img * 255.0).astype(np.float32) / 255.0
    return (img - CIFAR10_MEAN[:, None, None]) / CIFAR10_STD[:, None, None]


@dataclass
class Inputs:
    train: DatasetSplit
    val: DatasetSplit
    eval: DatasetSplit


def make_inputs(preset, seed, sizes):
    """Seeded images for every split, labelled by one random linear teacher."""
    rng = np.random.default_rng(seed)
    counts = (sizes["n_train"], sizes["n_val"], sizes["n_eval"])
    gen = mnist_like if preset.dataset == "mnist" else cifar_like
    x = gen(rng, sum(counts))
    flat = x.reshape(len(x), -1)
    teacher = rng.standard_normal((flat.shape[1], 10))
    labels = ((flat - flat.mean(axis=0)) @ teacher).argmax(axis=1).astype(np.int64)
    crop = preset.crop
    splits, start = [], 0
    for role, n in zip(("train", "val", "eval"), counts):
        split = DatasetSplit(x[start:start + n], labels[start:start + n], role)
        splits.append(center_crop(split, crop) if crop else split)
        start += n
    return Inputs(*splits)


def train_config(preset, seed):
    return pipeline.TrainConfig(
        optimizer="adadelta", lr=1.0, l1_strength=1e-5, lr_scale=0.1, adadelta_lr=0.5,
        warmup_epochs=WARMUP_EPOCHS, finetune_epochs=FINETUNE_EPOCHS,
        prune_ramp_epochs=RAMP_EPOCHS, batch_size=TRAIN_BATCH,
        base_dropout=preset.base_dropout, weight_target_density=dict(preset.weight_targets),
        seed=seed,
    )


@dataclass
class Setup:
    sizes: dict             # SIZES plus the workload's sweep rates
    preset: object
    inputs: Inputs
    net: object             # initial network; each round works on a deep copy
    cfg: pipeline.TrainConfig
    exact_cfg: WinnerRateConfig
    pred_cfg: WinnerRateConfig


def set_up(name, seed, smoke=False):
    """Data generation, net construction and (for inference) initial pruning."""
    w = WORKLOADS[name]
    sizes = {**SIZES, "sweep_rates": w.sweep_rates, **(SMOKE_SIZES if smoke else {})}
    preset = get_preset(w.preset)
    inputs = make_inputs(preset, seed, sizes)
    net = preset.build(seed=seed)
    if w.prune_at_setup:
        pipeline.prune_to_targets(net, preset.weight_targets, ramp=1.0)
    rates = dict(preset.reference_rates)
    return Setup(
        sizes=sizes, preset=preset, inputs=inputs, net=net,
        cfg=train_config(preset, seed),
        exact_cfg=WinnerRateConfig(per_layer_rate=rates),
        pred_cfg=WinnerRateConfig(per_layer_rate=rates, downsample_rate=PREDICT_EPS,
                                  selection_mode=PREDICTED_THRESHOLD),
    )


def operations(s):
    """Train steps, eval batches and batch-1 requests one round attempts."""
    sz = s.sizes
    steps_per_epoch = math.ceil(sz["n_train"] / TRAIN_BATCH)
    val_batches = math.ceil(sz["n_val"] / EVAL_BATCH)
    jp_epochs = WARMUP_EPOCHS + FINETUNE_EPOCHS
    sweep_passes = 1 + len(s.preset.mask_layers) * sum(r < 1.0 for r in sz["sweep_rates"])
    return {
        "train_steps": (DENSE_EPOCHS + jp_epochs) * steps_per_epoch,
        "eval_batches": (jp_epochs + sweep_passes) * val_batches
        + 2 * math.ceil(sz["n_eval"] / EVAL_BATCH) + SERVE_SLICES,
        "b1_requests": sz["b1_requests"],
    }


@contextlib.contextmanager
def _timed(seconds, tracer, name):
    """Add the block's wall-clock to ``seconds[name]``; a span when traced."""
    span = tracer.open("bench." + name) if tracer else None
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
        if span is not None:
            tracer.close(span)


def _serve(s, net, phase, ckpt_path, latencies, ckpt_times):
    """One serving slice: a MAC report, batch-1 requests, checkpoint round trips.

    Appends to ``latencies`` and ``ckpt_times``; returns the report, the
    last restored net and the number of non-finite batch-1 outputs.
    """
    with phase("macs"):
        report = metrics.count_effective_macs(net, s.inputs.eval.images[: s.sizes["macs_samples"]])
    images, n = s.inputs.eval.images, len(s.inputs.eval)
    nonfinite = 0
    with phase("infer_b1"):
        for _ in range(s.sizes["b1_requests"] // SERVE_SLICES):
            r = len(latencies) % n
            t0 = time.perf_counter()
            logits = net.forward(images[r : r + 1], mode="eval").logits
            latencies.append(time.perf_counter() - t0)
            nonfinite += not np.isfinite(logits).all()
    with phase("ckpt"):
        spent, repeats = 0.0, 0
        while repeats < CKPT_REPEATS / SERVE_SLICES or spent < CKPT_MIN_S / SERVE_SLICES:
            t0 = time.perf_counter()
            ck = checkpoint.checkpoint_from_network(net)
            checkpoint.save_checkpoint(ck, ckpt_path)
            restored = checkpoint.network_from_checkpoint(checkpoint.load_checkpoint(ckpt_path))
            ckpt_times.append(time.perf_counter() - t0)
            spent += ckpt_times[-1]
            repeats += 1
    return report, restored, nonfinite


def run_round(s, ckpt_path, tracer=None):
    """One pass over the timed phase chain on a fresh copy of the initial net.

    Returns ``(net, result)``; ``result`` holds phase times, per-request
    latencies, the outputs the checks and fingerprints read, and the round's
    wall-clock as ``round_s``.
    """
    t_round = time.perf_counter()
    phase_s = {}
    phase = functools.partial(_timed, phase_s, tracer)
    net = copy.deepcopy(s.net)
    train, val, ev = s.inputs.train, s.inputs.val, s.inputs.eval
    with phase("dense"):
        dense_hist = pipeline.train_dense(net, s.cfg, train, None, epochs=DENSE_EPOCHS)
    with phase("sweep"):
        pipeline.sensitivity_sweep(net, val, s.sizes["sweep_rates"], s.preset.mask_layers)
    with phase("jp"):
        jp_hist = pipeline.joint_finetune(net, s.exact_cfg, s.cfg, train, val)
    latencies, ckpt_times = [], []
    _, _, b1_nonfinite = _serve(s, net, phase, ckpt_path, latencies, ckpt_times)
    with phase("eval"):
        acc, stats = pipeline.evaluate(net, ev, mode="jp")
    with phase("eval_pred"):
        net.set_mask_cfg(s.pred_cfg)
        acc_pred, _ = pipeline.evaluate(net, ev, mode="jp")
        net.set_mask_cfg(s.exact_cfg)
    report, restored, nonfinite = _serve(s, net, phase, ckpt_path, latencies, ckpt_times)
    result = {
        "round_s": time.perf_counter() - t_round,
        "phase_s": phase_s,
        "latencies": np.array(latencies),
        "ckpt_times": ckpt_times,
        "b1_nonfinite": b1_nonfinite + nonfinite,
        "dense_hist": dense_hist,
        "jp_hist": jp_hist,
        "restored": restored,
        "ckpt_bytes": os.path.getsize(ckpt_path),
        "fingerprint": {
            "metrics.effective_mac_pct": report.mac_percent,
            "metrics.weight_density": report.weight_density,
            "metrics.act_pct": stats.activation_percent,
            "pipeline.final_train_loss": float(jp_hist[-1]["loss"]),
            "eval_acc": acc,
            "eval_pred_acc": acc_pred,
        },
    }
    return net, result


def end_to_end(s, results):
    """End-to-end metrics over all rounds of a run.

    Throughputs divide the samples of every round by the phase's total time,
    and times are means over rounds and repeats.  The machine alternates
    between a fast and a slow state for seconds at a time, so per-round
    values are bimodal; their median jumps between the modes while the mean
    follows the share of time spent in each.  The batch-1 median and p99
    are reported alongside the mean but are not gated for that reason.
    """
    sz = s.sizes
    rounds = len(results)

    def total(phase):
        return sum(r["phase_s"][phase] for r in results)

    lat_ms = np.concatenate([r["latencies"] for r in results]) * 1e3
    return {
        "dense_train_samples_per_s": rounds * DENSE_EPOCHS * sz["n_train"] / total("dense"),
        "jp_train_samples_per_s":
            rounds * (WARMUP_EPOCHS + FINETUNE_EPOCHS) * sz["n_train"] / total("jp"),
        "eval_samples_per_s": rounds * sz["n_eval"] / total("eval"),
        "eval_pred_samples_per_s": rounds * sz["n_eval"] / total("eval_pred"),
        "sweep_s": total("sweep") / rounds,
        "infer_b1_ms_mean": float(lat_ms.mean()),
        "infer_b1_ms_p50": float(np.median(lat_ms)),
        # "lower" leaves at least ten samples beyond p99 once 1000 are pooled
        "infer_b1_ms_p99": float(np.percentile(lat_ms, 99, method="lower")),
        "infer_b1_requests": len(lat_ms),
        "macs_report_s": total("macs") / (rounds * SERVE_SLICES),
        "ckpt_roundtrip_ms":
            1e3 * float(np.mean(np.concatenate([r["ckpt_times"] for r in results]))),
        "run_s": sum(r["round_s"] for r in results) / rounds,
    }
