"""The three-step joint pruning procedure: sensitivity analysis, joint
regularization, masked finetuning — plus dense baseline training, dropout
reconciliation and the evaluation helpers used for reporting.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .errors import ConfigError, DivergenceError
from .fields import (ANY, AT_LEAST_ONE, FRACTION, NON_NEGATIVE, OPEN_UNIT, POSITIVE, RATE, check,
                     check_fields, one_of, setting)
from .network import loss_and_backward
from .optim import OPTIMIZER_NAMES, make_optimizer
from .sparsity import WinnerRateConfig, prune_weights_by_magnitude, threshold_for_target_density

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    optimizer: str = setting(OPTIMIZER_NAMES, "train.optimizer", "adadelta")
    lr: float = setting(POSITIVE, "train.lr", 1.0)  # original-model learning rate
    momentum: float = setting(ANY, "train.momentum", 0.9)  # sgd only
    rho: float = setting(OPEN_UNIT, "train.rho", 0.95)  # adadelta only
    eps: float = setting(POSITIVE, "train.eps", 1e-6)
    l1_strength: float = setting(NON_NEGATIVE, "prune.l1_strength", 1e-5)  # alpha
    lr_scale: float = setting({"test": lambda v: 0.01 <= v <= 1, "words": "in [0.01,1]"},
                              "prune.lr_scale", 0.1)  # warm-up lr multiplier vs original
    adadelta_lr: float = setting(POSITIVE, "prune.adadelta_lr", 0.1)  # pruning-phase lr
    baseline_epochs: int = setting(NON_NEGATIVE, "train.baseline_epochs", 20)
    warmup_epochs: int = setting(NON_NEGATIVE, "prune.warmup_epochs", 1)
    finetune_epochs: int = setting(NON_NEGATIVE, "prune.finetune_epochs", 10)
    prune_ramp_epochs: int = setting(NON_NEGATIVE, "prune.prune_ramp_epochs", 4)
    batch_size: int = setting(AT_LEAST_ONE, "train.batch_size", 100)
    base_dropout: float | None = setting(FRACTION, "train.base_dropout", None)  # C_d; None: as is
    weight_target_density: dict[int, float] | None = setting(RATE, "prune.weight_targets", None)
    seed: int = setting(NON_NEGATIVE, "seed", 0)  # also WinnerRateConfig.offset_seed

    def __post_init__(self):
        check_fields(self)
        if self.optimizer == "sgd":  # the one rule that reads another field
            check("momentum", self.momentum, float, **FRACTION)


@dataclass
class SensitivityCurve:
    """Per-layer (winner_rate, accuracy_drop) points vs the dense baseline."""

    baseline_accuracy: float
    points: dict = field(default_factory=dict)  # layer index -> [(rate, drop)]


def minibatches(n, batch_size, rng=None):
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _make_opt(name, cfg, params, lr):
    """Optimizer ``name`` at ``lr``, with the settings ``cfg`` holds for it."""
    hyper = {"momentum": cfg.momentum} if name == "sgd" else {"rho": cfg.rho, "eps": cfg.eps}
    return make_optimizer(name, params, lr=lr, **hyper)


def run_epoch(net, opt, split, cfg, rng, alpha=0.0):
    """One pass over the split; returns (mean_total, mean_ce, mean_l1)."""
    totals = np.zeros(3)
    batches = 0
    for idx in minibatches(len(split), cfg.batch_size, rng):
        total, ce, l1 = loss_and_backward(
            net, split.images[idx], split.labels[idx], alpha=alpha, rng=rng
        )
        if not math.isfinite(total):
            raise DivergenceError(f"loss became non-finite ({total})")
        opt.step()
        totals += (total, ce, l1)
        batches += 1
    return tuple(totals / max(1, batches))


def evaluate(net, split, mode="jp", stat_layers=None):
    """Top-1 accuracy plus measured activation sparsity.

    ``mode``: ``dense`` runs without activation masks (the weight masks
    baked into the params still apply, so it also evaluates a weight-pruned
    net); ``jp`` uses the net's winner-rate config.  Stats cover
    ``stat_layers`` (default: the masked layers) plus the final output, so
    the same tensors are compared across modes; an index that names no
    layer of ``net`` is a ``ConfigError``.
    """
    check("mode", mode, str, **one_of("dense", "jp"))
    cfg = net.mask_cfg
    if mode == "jp" and cfg is None:
        raise ConfigError("jp mode requires a winner-rate config on the network")
    if stat_layers is None:
        stat_layers = sorted(cfg.per_layer_rate) if cfg else []
    last = len(net.layers) - 1
    for i in stat_layers:
        if not 0 <= i <= last:
            raise ConfigError(f"stat layer index {i} out of range for {last + 1} layers")
    layers = [i for i in stat_layers if i != last] + [last]
    with net.masks(cfg if mode == "jp" else None):
        counts, hits = metrics.nonzero_counts(net, split.images, layers, split.labels,
                                              f"{split.role} split")
    n = len(split)
    return hits / n, metrics.SparsityStats(per_layer=[
        (i, counts[i].size, int(counts[i].sum()) / (n * counts[i].size)) for i in layers])


def train_dense(net, cfg, train_split, val_split=None, epochs=None):
    """Plain baseline training: no masks, no l1 term."""
    epochs = cfg.baseline_epochs if epochs is None else epochs
    rng = np.random.default_rng(cfg.seed)
    opt = _make_opt(cfg.optimizer, cfg, net.params(), cfg.lr)
    history = []
    for epoch in range(epochs):
        total, ce, l1 = run_epoch(net, opt, train_split, cfg, rng)
        row = {"phase": "dense", "epoch": epoch, "loss": total, "ce": ce, "l1": l1,
               "weight_density": net.weight_density()}
        if val_split is not None:
            row["val_acc"] = evaluate(net, val_split, mode="dense")[0]
        history.append(row)
    return history


# -- step 1: sensitivity ----------------------------------------------------


def sensitivity_sweep(net, val_split, rates, layers):
    """Accuracy drop per layer over candidate winner rates.

    Each layer is masked alone to its exact top-k winners (all others
    untouched, whatever mask config the net carries); no parameters are
    modified.  A drop is the samples lost over ``n`` in one rounding, so a
    loss of exactly ``tolerable_drop * n`` samples is ``tolerable_drop``
    and is kept.  The drop at rate 1.0 is zero by construction.  ``points``
    follows the order of ``layers``, each layer's points ascend by rate.
    A rate outside (0, 1] is rejected first; every batch is one
    :meth:`Network.sweep_logits` walk, which first rejects an unmaskable layer.
    """
    if len(rates) == 0 or len(val_split) == 0:
        raise ConfigError("sensitivity sweep needs a non-empty rate grid and split")
    rates = sorted(check("winner rate", r, float, **RATE) for r in rates)
    swept = [r for r in dict.fromkeys(rates) if r != 1.0]
    base_hits, hits = 0, Counter()
    for idx in minibatches(len(val_split), metrics.EVAL_BATCH):
        labels = val_split.labels[idx]
        dense, masked = net.sweep_logits(val_split.images[idx], layers, swept)
        base_hits += metrics._hits(dense, labels)
        for key, logits in masked.items():
            hits[key] += metrics._hits(logits, labels)
    n = len(val_split)
    curve = SensitivityCurve(baseline_accuracy=base_hits / n)
    for layer in layers:
        curve.points[layer] = [(1.0, 0.0) if r == 1.0 else (r, (base_hits - hits[layer, r]) / n)
                               for r in rates]
    return curve


def choose_winner_rates(curve, tolerable_drop, template=None):
    """Smallest rate per layer whose measured drop stays within tolerance.

    Layers whose whole curve exceeds the tolerance fall back to rate 1.0
    with a warning.  Returns a :class:`WinnerRateConfig`.
    """
    rates = {}
    for layer, pts in curve.points.items():
        chosen = None
        for rate, drop in pts:  # sorted ascending: first hit is the smallest
            if drop <= tolerable_drop:
                chosen = rate
                break
        if chosen is None:
            log.warning("layer %d: no winner rate within drop %.4f, keeping 1.0",
                        layer, tolerable_drop)
            chosen = 1.0
        rates[layer] = chosen
    return replace(template or WinnerRateConfig(),
                   per_layer_rate={k: v for k, v in rates.items() if v < 1.0})


# -- step 2/3: joint regularization + masked finetuning ---------------------


def adjust_dropout(base_rate, winner_rate):
    """Dropout rate scaled by the square root of the layer's winner rate."""
    base_rate = check("base dropout", base_rate, float, **FRACTION)
    winner_rate = check("winner rate", winner_rate, float, **RATE)
    return base_rate * math.sqrt(winner_rate)


def reconcile_dropout(net, mask_cfg, base_dropout):
    """Set each dropout layer's rate to C_d * sqrt(rate of the mask it follows,
    with no weight layer in between; 1.0 when there is none)."""
    for j, spec in enumerate(net.specs):
        if spec.kind != "dropout":
            continue
        rate = None
        i = j - 1
        while i >= 0 and not net.layers[i].params:
            if i in mask_cfg.per_layer_rate:
                rate = mask_cfg.per_layer_rate[i]
                break
            i -= 1
        spec.geometry["rate"] = adjust_dropout(base_dropout, rate if rate else 1.0)


def prune_to_targets(net, targets, ramp=1.0):
    """Magnitude-prune each weight layer toward its density target.

    ``ramp`` in (0,1] interpolates the kept density between 1.0 and the
    final target.  Pruned weights are exactly ±0, so they stay pruned: masks
    are monotone non-increasing within a phase.
    """
    for i, p in net.weight_params():
        target = targets.get(i, 1.0)
        density = 1.0 - (1.0 - target) * ramp
        if density >= 1.0:
            continue
        thr = threshold_for_target_density(p.value, density)
        p.set_mask(prune_weights_by_magnitude(p.value, thr))


def _snapshot(net):
    return [(p.value.copy(), None if p.mask is None else p.mask.copy())
            for p in net.params()]


def _restore(net, snap):
    for p, (value, mask) in zip(net.params(), snap):
        p.value = value.copy()
        p.mask = None if mask is None else mask.copy()
        p.grad = np.zeros_like(p.value)


def joint_finetune(net, mask_cfg, cfg, train_split, val_split):
    """Warm-up with joint regularization, then prune-and-finetune.

    Warm-up keeps the original optimizer at ``lr * lr_scale`` with the l1
    term and dynamic masks active.  The pruning phase switches to Adadelta,
    ramps the per-layer weight densities to their targets and re-prunes
    once per epoch; weight masks only ever shrink.  On divergence the last
    good state is restored: the best post-ramp snapshot, or else the state
    on entry.  Returns the history; the network ends at the best validation
    accuracy seen after the ramp completed.  Raises ``DivergenceError``
    instead when the state it would end on holds non-finite params.  A
    weight target keyed by a layer that holds no weights raises
    ``ConfigError`` before the network is touched.
    """
    targets = cfg.weight_target_density or {}
    weight_layers = {i for i, _ in net.weight_params()}
    for layer in targets:
        if layer not in weight_layers:
            raise ConfigError(f"weight target of layer {layer}: not a weight layer, "
                              f"choose from {sorted(weight_layers)}")
    net.set_mask_cfg(mask_cfg)
    if cfg.base_dropout is not None:
        reconcile_dropout(net, mask_cfg, cfg.base_dropout)
    rng = np.random.default_rng(cfg.seed + 1)
    history = []
    alpha = cfg.l1_strength

    def record(phase, epoch, losses):
        acc, stats = evaluate(net, val_split, mode="jp")
        history.append({
            "phase": phase, "epoch": epoch,
            "loss": losses[0], "ce": losses[1], "l1": losses[2],
            "val_acc": acc,
            "weight_density": net.weight_density(),
            "act_percent": stats.activation_percent,
        })
        return acc

    entry = _snapshot(net)
    best = (None, -1.0)
    try:
        if cfg.warmup_epochs:
            opt = _make_opt(cfg.optimizer, cfg, net.params(), cfg.lr * cfg.lr_scale)
            for epoch in range(cfg.warmup_epochs):
                losses = run_epoch(net, opt, train_split, cfg, rng, alpha=alpha)
                record("warmup", epoch, losses)
        opt = _make_opt("adadelta", cfg, net.params(), cfg.adadelta_lr)
        for epoch in range(cfg.finetune_epochs):
            ramp = min(1.0, (epoch + 1) / max(1, cfg.prune_ramp_epochs))
            prune_to_targets(net, targets, ramp)
            losses = run_epoch(net, opt, train_split, cfg, rng, alpha=alpha)
            acc = record("finetune", epoch, losses)
            if ramp >= 1.0 and acc > best[1]:
                best = (_snapshot(net), acc)
    except DivergenceError as e:
        log.warning("finetuning diverged (%s); restoring last good state", e)
        history.append({**dict.fromkeys(HISTORY_HEADER, float("nan")), "phase": "aborted",
                        "epoch": -1, "weight_density": net.weight_density()})
        if best[0] is None:  # diverged before any post-ramp snapshot
            best = (entry, None)
    if best[0] is not None:
        _restore(net, best[0])
    if not all(np.isfinite(p.value).all() for p in net.params()):
        raise DivergenceError("finetuning ends on non-finite params: no finite state to restore")
    return history


def weight_prune_only(net, cfg, train_split, val_split):
    """WP baseline: same schedule with no activation masks."""
    return joint_finetune(net, WinnerRateConfig(), cfg, train_split, val_split)


HISTORY_HEADER = ["phase", "epoch", "loss", "ce", "l1", "val_acc",
                  "weight_density", "act_percent"]


def history_rows(history):
    return HISTORY_HEADER, [[row.get(k, "") for k in HISTORY_HEADER] for row in history]
