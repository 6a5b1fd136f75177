"""Experiment configuration: a YAML file tying together model, data,
training hyperparameters and sparsity settings.

Unknown models, malformed values and missing required keys raise
:class:`ConfigError` naming the offending key path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import datasets
from .errors import ConfigError
from .models import get_preset
from .pipeline import TrainConfig
from .sparsity import WinnerRateConfig


@dataclass
class Experiment:
    preset: object
    train_cfg: TrainConfig
    mask_cfg: WinnerRateConfig
    data_dir: str
    val_size: int
    train_subset: int | None
    rate_grid: list
    tolerable_drop: float
    out_dir: str

    def load_data(self):
        """Returns (train, val, test) splits prepared for the model."""
        preset = self.preset
        if preset.dataset == "mnist":
            paths = datasets.mnist_paths(self.data_dir)
            full = datasets.load_mnist(*paths["train"], role="train")
            test = datasets.load_mnist(*paths["test"], role="test")
        else:
            paths = datasets.cifar10_paths(self.data_dir)
            full = datasets.load_cifar10(paths["train"], role="train")
            test = datasets.load_cifar10(paths["test"], role="test")
        train, val = datasets.train_val_split(full, self.val_size, self.train_cfg.seed)
        if self.train_subset:
            train = train.subset(np.arange(min(self.train_subset, len(train))))
        if preset.crop:
            train = datasets.center_crop(train, preset.crop)
            val = datasets.center_crop(val, preset.crop)
            test = datasets.center_crop(test, preset.crop)
        return train, val, test


def _get(doc, path, default=None, required=False):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"missing config key: {path}")
            return default
        cur = cur[part]
    return cur


def _as(cast, doc, path, default):
    """``cast(value)`` of a config key; a bad value names the key path."""
    value = _get(doc, path, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {path}: invalid value {value!r}") from None


def _per_layer(doc, path, reference):
    """A {layer: value} map; an absent or 'reference' key gives ``reference``."""
    value = _get(doc, path)
    if value in (None, "reference"):
        return dict(reference)
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be 'reference' or a {{layer: value}} map")
    return _as(lambda v: {int(k): float(x) for k, x in v.items()}, doc, path, None)


def load_experiment(path):
    try:
        with open(path) as f:
            doc = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from None

    model = _get(doc, "model", required=True)
    if _get(doc, "train.base_dropout") is None:
        preset = get_preset(model)
    else:
        preset = get_preset(model, base_dropout=_as(float, doc, "train.base_dropout", None))
    seed = _as(int, doc, "seed", 0)

    train_cfg = TrainConfig(
        optimizer=_get(doc, "train.optimizer", "adadelta"),
        lr=_as(float, doc, "train.lr", 1.0),
        momentum=_as(float, doc, "train.momentum", 0.9),
        rho=_as(float, doc, "train.rho", 0.95),
        eps=_as(float, doc, "train.eps", 1e-6),
        baseline_epochs=_as(int, doc, "train.baseline_epochs", 20),
        batch_size=_as(int, doc, "train.batch_size", 100),
        l1_strength=_as(float, doc, "prune.l1_strength", 1e-5),
        lr_scale=_as(float, doc, "prune.lr_scale", 0.1),
        adadelta_lr=_as(float, doc, "prune.adadelta_lr", 0.1),
        warmup_epochs=_as(int, doc, "prune.warmup_epochs", 1),
        finetune_epochs=_as(int, doc, "prune.finetune_epochs", 10),
        prune_ramp_epochs=_as(int, doc, "prune.prune_ramp_epochs", 4),
        base_dropout=preset.base_dropout,
        weight_target_density=_per_layer(doc, "prune.weight_targets", preset.weight_targets),
        seed=seed,
    )
    mask_cfg = WinnerRateConfig(
        per_layer_rate=_per_layer(doc, "prune.winner_rates", preset.reference_rates),
        downsample_rate=_as(float, doc, "sparsity.downsample_rate", 1.0),
        selection_mode=_get(doc, "sparsity.selection_mode", "exact_topk"),
        offset_seed=seed,
    )
    return Experiment(
        preset=preset,
        train_cfg=train_cfg,
        mask_cfg=mask_cfg,
        data_dir=_get(doc, "data.dir", required=True),
        val_size=_as(int, doc, "data.val_size", 10000),
        train_subset=_as(lambda v: v and int(v), doc, "data.train_subset", None),
        rate_grid=_as(lambda v: [float(r) for r in v], doc, "prune.rate_grid",
                      [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]),
        tolerable_drop=_as(float, doc, "prune.tolerable_drop", 0.01),
        out_dir=_get(doc, "outputs", os.path.join("runs", model)),
    )
