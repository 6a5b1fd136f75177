"""Experiment configuration: a YAML file tying together model, data,
training hyperparameters and sparsity settings.

Unknown keys or sections, unknown models, malformed values and missing
required keys raise :class:`ConfigError` naming the offending key path.
"""

from __future__ import annotations

import os
import typing
from dataclasses import dataclass, field

import yaml

from . import datasets
from .errors import ConfigError
from .fields import cast_field
from .models import get_preset
from .pipeline import TrainConfig
from .sparsity import WinnerRateConfig


@dataclass
class Experiment:
    preset: object
    train_cfg: TrainConfig
    mask_cfg: WinnerRateConfig
    data_dir: str
    out_dir: str  # default runs/<model>
    val_size: int = 10000
    train_subset: int | None = None
    rate_grid: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0])
    tolerable_drop: float = 0.01

    def __post_init__(self):
        if self.train_subset is not None and self.train_subset < 1:
            raise ConfigError(f"data.train_subset must be >= 1, got {self.train_subset}")
        if not 0.0 <= self.tolerable_drop <= 1.0:
            raise ConfigError(f"prune.tolerable_drop must be in [0,1], got {self.tolerable_drop}")

    def _read(self, name):
        """The ``name`` split (``train`` or ``test``) of the preset's dataset."""
        if self.preset.dataset == "mnist":
            return datasets.load_mnist(*datasets.mnist_paths(self.data_dir)[name], role=name)
        return datasets.load_cifar10(datasets.cifar10_paths(self.data_dir)[name], role=name)

    def _crop(self, split):
        crop = self.preset.crop
        return datasets.center_crop(split, crop) if crop else split

    def load_test(self):
        """The test split prepared for the model, read from the test files
        alone."""
        return self._crop(self._read("test"))

    def load_data(self):
        """Returns (train, val, test) splits prepared for the model."""
        train, val = datasets.train_val_split(self._read("train"), self.val_size,
                                              self.train_cfg.seed, self.train_subset)
        return self._crop(train), self._crop(val), self.load_test()


# Every accepted YAML key, as a dotted path, and the (dataclass, field) its
# value lands on, cast to that field's type by ``cast_field`` (a value of
# another kind is rejected, not converted); an absent key keeps the field's
# default.  ``model`` and ``train.base_dropout`` also pick the preset, whose
# own maps the two per-layer keys take when absent or ``reference``.
KEYS = {
    "model": (Experiment, "preset"),
    "seed": (TrainConfig, "seed"),  # also WinnerRateConfig.offset_seed
    "outputs": (Experiment, "out_dir"),
    "data.dir": (Experiment, "data_dir"),
    "data.val_size": (Experiment, "val_size"),
    "data.train_subset": (Experiment, "train_subset"),
    "train.optimizer": (TrainConfig, "optimizer"),
    "train.lr": (TrainConfig, "lr"),
    "train.momentum": (TrainConfig, "momentum"),
    "train.rho": (TrainConfig, "rho"),
    "train.eps": (TrainConfig, "eps"),
    "train.baseline_epochs": (TrainConfig, "baseline_epochs"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.base_dropout": (TrainConfig, "base_dropout"),
    "prune.winner_rates": (WinnerRateConfig, "per_layer_rate"),
    "prune.weight_targets": (TrainConfig, "weight_target_density"),
    "prune.l1_strength": (TrainConfig, "l1_strength"),
    "prune.lr_scale": (TrainConfig, "lr_scale"),
    "prune.adadelta_lr": (TrainConfig, "adadelta_lr"),
    "prune.warmup_epochs": (TrainConfig, "warmup_epochs"),
    "prune.finetune_epochs": (TrainConfig, "finetune_epochs"),
    "prune.prune_ramp_epochs": (TrainConfig, "prune_ramp_epochs"),
    "prune.rate_grid": (Experiment, "rate_grid"),
    "prune.tolerable_drop": (Experiment, "tolerable_drop"),
    "sparsity.downsample_rate": (WinnerRateConfig, "downsample_rate"),
    "sparsity.selection_mode": (WinnerRateConfig, "selection_mode"),
}
SECTIONS = {key.split(".")[0] for key in KEYS if "." in key}


def _flatten(doc, section=None):
    """Yields (dotted key path, value) for each key of a config mapping; a
    key or section not in :data:`KEYS`, or a section that is not a mapping,
    raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {section or 'file'} must be a mapping, got {doc!r}")
    for key, value in doc.items():
        path = key if section is None else f"{section}.{key}"
        if section is None and key in SECTIONS:
            yield from _flatten({} if value is None else value, key)
        elif path in KEYS and "." not in str(key):  # one spelling per key
            yield path, value
        else:
            raise ConfigError(f"unknown config key: {path}")


def load_experiment(path):
    try:
        with open(path) as f:
            values = dict(_flatten(yaml.safe_load(f) or {}))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from None

    for key in ("model", "data.dir"):
        if key not in values:
            raise ConfigError(f"missing config key: {key}")
    model = values.pop("model")
    for key in ("prune.winner_rates", "prune.weight_targets"):
        if values.get(key) in (None, "reference"):
            values.pop(key, None)
    kw = {TrainConfig: {}, WinnerRateConfig: {}, Experiment: {}}
    for key, value in values.items():
        owner, name = KEYS[key]
        try:
            kw[owner][name] = cast_field(typing.get_type_hints(owner)[name], value)
        except (AttributeError, TypeError, ValueError):
            raise ConfigError(f"config key {key}: invalid value {value!r}") from None
    train_kw, mask_kw, exp_kw = kw.values()

    dropout = train_kw.get("base_dropout")
    preset = get_preset(model) if dropout is None else get_preset(model, base_dropout=dropout)
    train_kw["base_dropout"] = preset.base_dropout
    train_kw.setdefault("weight_target_density", dict(preset.weight_targets))
    mask_kw.setdefault("per_layer_rate", dict(preset.reference_rates))
    train_cfg = TrainConfig(**train_kw)
    mask_cfg = WinnerRateConfig(**mask_kw, offset_seed=train_cfg.seed)
    exp_kw.setdefault("out_dir", os.path.join("runs", model))
    return Experiment(preset, train_cfg, mask_cfg, **exp_kw)
