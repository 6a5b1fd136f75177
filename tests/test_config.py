"""Experiment YAML parsing and data preparation."""

import numpy as np
import pytest

from jointprune.config import load_experiment
from jointprune.errors import ConfigError


def _write(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    path = _write(tmp_path, "model: mlp3\ndata:\n  dir: /nonexistent\n")
    exp = load_experiment(path)
    assert exp.preset.name == "mlp3"
    assert exp.train_cfg.optimizer == "adadelta"
    assert exp.train_cfg.baseline_epochs == 20
    assert exp.mask_cfg.per_layer_rate == {2: 0.12, 5: 0.24}  # preset reference
    assert exp.train_cfg.weight_target_density == {1: 0.10, 4: 0.10, 7: 0.20}
    assert exp.mask_cfg.selection_mode == "exact_topk"
    assert exp.rate_grid[0] == 0.05 and exp.rate_grid[-1] == 1.0
    assert exp.out_dir.endswith("mlp3")


def test_explicit_overrides(tmp_path):
    path = _write(tmp_path, """
model: lenet4
seed: 7
data:
  dir: /tmp/data
  val_size: 2000
  train_subset: 500
train:
  optimizer: sgd
  lr: 0.05
  baseline_epochs: 3
prune:
  winner_rates: {"2": 0.1, "5": 0.2}
  weight_targets: {"0": 0.5}
  rate_grid: [0.1, 0.5, 1.0]
  tolerable_drop: 0.02
sparsity:
  downsample_rate: 0.1
  selection_mode: predicted_threshold
outputs: /tmp/out
""")
    exp = load_experiment(path)
    assert exp.train_cfg.optimizer == "sgd" and exp.train_cfg.lr == 0.05
    assert exp.train_cfg.seed == 7
    assert exp.mask_cfg.per_layer_rate == {2: 0.1, 5: 0.2}  # string keys coerced
    assert exp.mask_cfg.downsample_rate == 0.1
    assert exp.mask_cfg.selection_mode == "predicted_threshold"
    assert exp.mask_cfg.offset_seed == 7
    assert exp.train_cfg.weight_target_density == {0: 0.5}
    assert exp.train_subset == 500 and exp.val_size == 2000
    assert exp.rate_grid == [0.1, 0.5, 1.0]
    assert exp.tolerable_drop == 0.02
    assert exp.out_dir == "/tmp/out"


def test_reference_keyword(tmp_path):
    path = _write(tmp_path, """
model: mlp3
data: {dir: /d}
prune:
  winner_rates: reference
  weight_targets: reference
""")
    exp = load_experiment(path)
    assert exp.mask_cfg.per_layer_rate == {2: 0.12, 5: 0.24}


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        load_experiment(_write(tmp_path, "data: {dir: /d}\n"))
    with pytest.raises(ConfigError, match="data.dir"):
        load_experiment(_write(tmp_path, "model: mlp3\n"))
    with pytest.raises(ConfigError, match="unknown model"):
        load_experiment(_write(tmp_path, "model: resnet\ndata: {dir: /d}\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment(str(tmp_path / "missing.yaml"))
    with pytest.raises(ConfigError, match="YAML"):
        load_experiment(_write(tmp_path, "model: [unclosed\n", name="bad.yaml"))
    with pytest.raises(ConfigError, match="winner_rates"):
        load_experiment(_write(tmp_path,
                               "model: mlp3\ndata: {dir: /d}\nprune: {winner_rates: 3}\n"))
    with pytest.raises(ConfigError, match="unknown optimizer 'adam'"):
        load_experiment(_write(tmp_path,
                               "model: mlp3\ndata: {dir: /d}\ntrain: {optimizer: adam}\n"))


def test_load_data_subset_and_split(tmp_path, data_dir):
    path = _write(tmp_path, f"""
model: mlp3
data:
  dir: {data_dir}
  val_size: 1000
  train_subset: 2000
""")
    exp = load_experiment(path)
    train, val, test = exp.load_data()
    assert len(train) == 2000 and len(val) == 1000 and len(test) == 10_000
    assert train.images.shape[1:] == (1, 28, 28)
    assert val.role == "val" and test.role == "test"
