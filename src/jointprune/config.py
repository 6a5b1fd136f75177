"""Experiment configuration: a YAML file tying together model, data,
training hyperparameters and sparsity settings.

An unknown key or section, a missing required key and a value its field's
rule rejects (``fields.check``) raise :class:`ConfigError` naming the key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import yaml

from . import datasets
from .errors import ConfigError
from .fields import ANY, AT_LEAST_ONE, CLOSED_UNIT, check, check_fields, rules, setting
from .models import get_preset
from .pipeline import TrainConfig
from .sparsity import WinnerRateConfig


@dataclass
class Experiment:
    preset: object
    train_cfg: TrainConfig
    mask_cfg: WinnerRateConfig
    data_dir: str = setting(ANY, "data.dir")
    out_dir: str = setting(ANY, "outputs")  # default runs/<model>
    val_size: int = setting(ANY, "data.val_size", 10000)  # checked against the data
    train_subset: int | None = setting(AT_LEAST_ONE, "data.train_subset", None)
    rate_grid: list[float] = setting(ANY, "prune.rate_grid", (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0))
    tolerable_drop: float = setting(CLOSED_UNIT, "prune.tolerable_drop", 0.01)

    __post_init__ = check_fields

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
# value lands on: each field names its key beside its rule
# (``fields.setting``).  An absent key keeps the field's default.  ``model``
# and ``train.base_dropout`` also pick the preset, whose own maps the two
# per-layer keys take when absent or ``reference``.
KEYS = {"model": (Experiment, "preset")} | {
    f.metadata["key"]: (owner, f.name) for owner in (TrainConfig, WinnerRateConfig, Experiment)
    for f in fields(owner) if f.metadata.get("key")}
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
        kw[owner][name] = check(key, value, *rules(owner)[name])
    train_kw, mask_kw, exp_kw = kw.values()

    dropout = train_kw.get("base_dropout")
    preset = get_preset(model) if dropout is None else get_preset(model, base_dropout=dropout)
    train_kw["base_dropout"] = preset.base_dropout
    train_kw.setdefault("weight_target_density", dict(preset.weight_targets))
    mask_kw.setdefault("per_layer_rate", dict(preset.reference_rates))
    try:
        train_cfg = TrainConfig(**train_kw)
    except ConfigError as e:  # each value passed above: what is left is sgd's momentum rule
        raise ConfigError(f"train.{e}") from None
    mask_cfg = WinnerRateConfig(**mask_kw, offset_seed=train_cfg.seed)
    exp_kw.setdefault("out_dir", os.path.join("runs", model))
    return Experiment(preset, train_cfg, mask_cfg, **exp_kw)
