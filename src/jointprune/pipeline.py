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

from .errors import ConfigError, DivergenceError
from .metrics import SparsityStats, nonzero_count
from .network import loss_and_backward
from .optim import make_optimizer
from .sparsity import WinnerRateConfig, prune_weights_by_magnitude, threshold_for_target_density

log = logging.getLogger(__name__)
EVAL_BATCH = 500  # samples per evaluation forward


@dataclass
class TrainConfig:
    optimizer: str = "adadelta"
    lr: float = 1.0                 # original-model learning rate
    momentum: float = 0.9           # sgd only
    rho: float = 0.95               # adadelta only
    eps: float = 1e-6
    l1_strength: float = 1e-5       # alpha
    lr_scale: float = 0.1           # warm-up lr multiplier vs original
    adadelta_lr: float = 0.1        # pruning-phase adadelta lr
    baseline_epochs: int = 20
    warmup_epochs: int = 1
    finetune_epochs: int = 10
    prune_ramp_epochs: int = 4
    batch_size: int = 100
    base_dropout: float | None = None  # C_d; None: joint_finetune keeps the dropout rates as built
    weight_target_density: dict[int, float] | None = None
    seed: int = 0

    def __post_init__(self):
        # the optimizers check their own settings: build each one training uses
        for name, lr in ((self.optimizer, self.lr), ("adadelta", self.adadelta_lr)):
            _make_opt(name, self, [], lr)
        if not 0.01 <= self.lr_scale <= 1.0:
            raise ConfigError(f"lr_scale must be in [0.01, 1], got {self.lr_scale}")
        for name in ("baseline_epochs", "warmup_epochs", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be an int >= 0, got {self.seed}")
        if self.base_dropout is not None and not 0.0 <= self.base_dropout < 1.0:
            raise ConfigError(f"base_dropout must be in [0,1), got {self.base_dropout}")
        for layer, density in (self.weight_target_density or {}).items():
            if not 0.0 < density <= 1.0:
                raise ConfigError(f"weight target of layer {layer} must be in (0,1], "
                                  f"got {density}")


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


def _hits(logits, labels):
    return int((logits.argmax(axis=1) == labels).sum())


def evaluate(net, split, mode="jp", stat_layers=None):
    """Top-1 accuracy plus measured activation sparsity.

    ``mode``: ``dense`` runs without activation masks (the weight masks
    baked into the params still apply, so it also evaluates a weight-pruned
    net); ``jp`` uses the net's winner-rate config.  Stats cover
    ``stat_layers`` (default: the masked layers) plus the final output, so
    the same tensors are compared across modes.
    """
    if mode not in ("dense", "jp"):
        raise ConfigError(f"unknown eval mode {mode!r}")
    cfg = net.mask_cfg
    if mode == "jp" and cfg is None:
        raise ConfigError("jp mode requires a winner-rate config on the network")
    if len(split) == 0:
        raise ConfigError(f"cannot evaluate on an empty {split.role} split")
    if stat_layers is None:
        stat_layers = sorted(cfg.per_layer_rate) if cfg else []
    last = len(net.layers) - 1
    layers = [i for i in stat_layers if i != last] + [last]
    correct = 0
    nnz = {i: 0 for i in layers}
    sizes = {i: 0 for i in layers}
    with net.masks(cfg if mode == "jp" else None):
        for idx in minibatches(len(split), EVAL_BATCH):
            result = net.forward(split.images[idx], mode="eval", keep=layers)
            correct += _hits(result.logits, split.labels[idx])
            for i in layers:
                a = result.post_mask[i]
                nnz[i] += nonzero_count(a)
                sizes[i] += a.size
    stats = SparsityStats(
        per_layer=[(i, sizes[i] // len(split), nnz[i] / sizes[i]) for i in layers]
    )
    return correct / len(split), stats


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
    Every batch is one :meth:`Network.sweep_logits` walk, which rejects a
    rate outside (0, 1] or an unmaskable layer before any layer runs.
    """
    if len(rates) == 0 or len(val_split) == 0:
        raise ConfigError("sensitivity sweep needs a non-empty rate grid and split")
    rates = sorted(rates)
    swept = [r for r in dict.fromkeys(rates) if r != 1.0]
    base_hits, hits = 0, Counter()
    for idx in minibatches(len(val_split), EVAL_BATCH):
        labels = val_split.labels[idx]
        dense, masked = net.sweep_logits(val_split.images[idx], layers, swept)
        base_hits += _hits(dense, labels)
        for key, logits in masked.items():
            hits[key] += _hits(logits, labels)
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
    if not 0.0 <= base_rate < 1.0:
        raise ConfigError(f"base dropout must be in [0,1), got {base_rate}")
    if not 0.0 < winner_rate <= 1.0:
        raise ConfigError(f"winner rate must be in (0,1], got {winner_rate}")
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
