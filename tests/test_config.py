"""Experiment YAML parsing and data preparation."""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from jointprune import fields
from jointprune.cli import main
from jointprune.config import KEYS, Experiment, load_experiment
from jointprune.datasets import DatasetSplit, cifar10_paths, train_val_split
from jointprune.errors import ConfigError
from jointprune.models import PRESETS
from jointprune.pipeline import TrainConfig
from jointprune.sparsity import WinnerRateConfig

from datafiles import write_cifar10

REPO = Path(__file__).resolve().parents[1]


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
    with pytest.raises(ConfigError, match=re.escape(
            "leaky6 has no dropout layers: train.base_dropout must be 0")):
        load_experiment(_write(tmp_path, "model: leaky6\ndata: {dir: /d}\n"
                                         "train: {base_dropout: 0.5}\n"))
    models = "model must be a str in {mlp3, lenet4, convnet5, leaky6}"
    with pytest.raises(ConfigError, match=re.escape(f"{models}, got 'resnet'")):
        load_experiment(_write(tmp_path, "model: resnet\ndata: {dir: /d}\n"))
    with pytest.raises(ConfigError, match=re.escape(f"{models}, got ['mlp3']")):
        load_experiment(_write(tmp_path, "model: [mlp3]\ndata: {dir: /d}\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment(str(tmp_path / "missing.yaml"))
    with pytest.raises(ConfigError, match="YAML"):
        load_experiment(_write(tmp_path, "model: [unclosed\n", name="bad.yaml"))
    with pytest.raises(ConfigError, match="winner_rates"):
        load_experiment(_write(tmp_path,
                               "model: mlp3\ndata: {dir: /d}\nprune: {winner_rates: 3}\n"))
    with pytest.raises(ConfigError, match=re.escape(
            "train.optimizer must be a str in {sgd, adadelta}, got 'adam'")):
        load_experiment(_write(tmp_path,
                               "model: mlp3\ndata: {dir: /d}\ntrain: {optimizer: adam}\n"))
    # keys and sections outside the key table, and values of the wrong kind
    for text, path in [
        ("prune: {l1_strenght: 0.5}", "unknown config key: prune.l1_strenght"),
        ("prune: {finetune_epoch: 3}", "unknown config key: prune.finetune_epoch"),
        ("trian: {lr: 0.1}", "unknown config key: trian"),
        ("sparsity: {selection-mode: predicted_threshold}",
         "unknown config key: sparsity.selection-mode"),
        ("prune.l1_strength: 0.5", "unknown config key: prune.l1_strength"),
        ("train: 5", "config train must be a mapping"),
        ("outputs: 5", "outputs must be a str, got 5"),
        ("sparsity: {selection_mode: 3}",
         "sparsity.selection_mode must be a str in {exact_topk, predicted_threshold}, got 3"),
        ("data: {dir: /d, val_size: [1]}", "data.val_size must be an int, got [1]"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(path)):
            load_experiment(_write(tmp_path, f"model: mlp3\ndata: {{dir: /d}}\n{text}\n"))
    with pytest.raises(ConfigError, match=re.escape("data.dir must be a str, got 5")):
        load_experiment(_write(tmp_path, "model: mlp3\ndata: {dir: 5}\n"))
    with pytest.raises(ConfigError, match="config file must be a mapping"):
        load_experiment(_write(tmp_path, "- model\n"))


@pytest.mark.parametrize("value", ["-1", ".nan", "1.5"])
def test_a_tolerable_drop_outside_zero_one_is_rejected(tmp_path, value):
    """A negative or NaN tolerance used to load and make every layer fall
    back to rate 1.0 with only a warning; an accuracy drop is in [0, 1]."""
    with pytest.raises(ConfigError, match=re.escape("prune.tolerable_drop must be in [0,1]")):
        load_experiment(_write(tmp_path, f"model: mlp3\ndata: {{dir: /d}}\n"
                                         f"prune: {{tolerable_drop: {value}}}\n"))


@pytest.mark.parametrize("text", [
    "data: {dir: 5}",
    "data: {dir: /d}\noutputs: 5",
    "data: {dir: /d}\ntrain: 5",
    "data: {dir: /d}\nprune: {l1_strenght: 0.5}",
])
def test_cli_rejects_a_malformed_config_in_one_line(tmp_path, capsys, text):
    cfg = _write(tmp_path, f"model: mlp3\n{text}\n")
    assert main(["bench-fc", cfg, "--n-in", "8", "--n-out", "8", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("text, line", [
    ("data: {dir: /d}\nseed: 2.9", "seed must be an int >= 0, got 2.9"),
    ("data: {dir: /d}\nseed: true", "seed must be an int >= 0, got True"),
    ("data: {dir: /d}\ntrain: {batch_size: 100.7}",
     "train.batch_size must be an int >= 1, got 100.7"),
    ("data: {dir: /d}\ntrain: {lr: yes}", "train.lr must be > 0, got True"),
    ("data: {dir: /d, train_subset: 10.5}", "data.train_subset must be an int >= 1, got 10.5"),
    ("data: {dir: /d}\nprune: {winner_rates: {2: yes}}",
     "prune.winner_rates must be a dict of int to float in (0,1], got {2: True}"),
    ("data: {dir: /d}\nprune: {weight_targets: {1.5: 0.5}}",
     "prune.weight_targets must be a dict of int to float in (0,1], got {1.5: 0.5}"),
    ("data: {dir: /d}\nprune: {rate_grid: [0.5, true]}",
     "prune.rate_grid must be a list of float, got [0.5, True]"),
    ("data: {dir: /d}\nprune: {rate_grid: \"12\"}",
     "prune.rate_grid must be a list of float, got '12'"),
])
def test_a_value_of_another_kind_is_rejected_not_converted(tmp_path, capsys, text, line):
    """A bool in a number field and a fractional float in an int field, also
    as a list or dict item, and a string in a list field (not read as its
    characters), exit 1 with one line naming the key path."""
    cfg = _write(tmp_path, f"model: mlp3\n{text}\n")
    assert main(["bench-fc", cfg, "--n-in", "8", "--n-out", "8", "--trials", "1"]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_integral_floats_and_numeric_strings_still_load(tmp_path):
    exp = load_experiment(_write(tmp_path, """
model: mlp3
seed: 3.0
data: {dir: /d}
train: {batch_size: 100.0}
prune: {l1_strength: 1e-5, winner_rates: {"2": 0.5, 5.0: 1}}
"""))
    assert exp.train_cfg.batch_size == 100 and type(exp.train_cfg.batch_size) is int
    assert exp.train_cfg.seed == 3 and type(exp.train_cfg.seed) is int
    assert exp.train_cfg.l1_strength == 1e-5  # PyYAML reads 1e-5 as a string
    assert exp.mask_cfg.per_layer_rate == {2: 0.5, 5: 1.0}


def _set_default(monkeypatch, cls, name, value):
    """Makes ``value`` the default of dataclass ``cls``'s field ``name``."""
    names = [f.name for f in dataclasses.fields(cls)]
    defaults = list(cls.__init__.__defaults__)
    defaults[names.index(name) - len(names) + len(defaults)] = value
    monkeypatch.setattr(cls.__init__, "__defaults__", tuple(defaults))


def test_dataclass_defaults_reach_the_loaded_config(tmp_path, monkeypatch):
    _set_default(monkeypatch, TrainConfig, "lr", 0.25)
    _set_default(monkeypatch, TrainConfig, "finetune_epochs", 3)
    _set_default(monkeypatch, WinnerRateConfig, "selection_mode", "predicted_threshold")
    _set_default(monkeypatch, Experiment, "tolerable_drop", 0.05)
    exp = load_experiment(_write(tmp_path, "model: mlp3\ndata: {dir: /d}\n"))
    assert exp.train_cfg.lr == 0.25 and exp.train_cfg.finetune_epochs == 3
    assert exp.mask_cfg.selection_mode == "predicted_threshold"
    assert exp.tolerable_drop == 0.05


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_config_keys_land_on_their_fields(path):
    doc = yaml.safe_load(path.read_text())
    exp = load_experiment(str(path))
    objects = {TrainConfig: exp.train_cfg, WinnerRateConfig: exp.mask_cfg, Experiment: exp}
    references = {"prune.winner_rates": exp.preset.reference_rates,
                  "prune.weight_targets": exp.preset.weight_targets}
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    for key, value in flat.items():
        owner, name = KEYS[key]
        got = getattr(objects[owner], name)
        if key == "model":
            got = got.name
        if value == "reference":
            value = references[key]
        assert got == value, key
    assert exp.mask_cfg.offset_seed == doc["seed"]


def test_readme_lists_the_key_table():
    rows = re.findall(r"^\| `([^`]+)` \| `(\w+)\.(\w+)`", (REPO / "README.md").read_text(),
                      flags=re.M)
    assert {key: (owner, name) for key, owner, name in rows} == {
        key: (owner.__name__, name) for key, (owner, name) in KEYS.items()}
    assert len(rows) == len(KEYS)


def test_readme_key_table_carries_each_rule_in_words():
    """The "Accepts" cell of each key's row holds the words its rule puts in
    an error line; ``model`` is checked by ``models.get_preset``."""
    cells = dict(re.findall(r"^\| `([^`]+)` \| .* \| ([^|]+) \|$",
                            (REPO / "README.md").read_text(), flags=re.M))
    rules = {key: fields.rules(owner)[name] for key, (owner, name) in KEYS.items()
             if key != "model"}
    rules["model"] = (str, *fields.one_of(*PRESETS).values())
    assert cells.keys() >= KEYS.keys()
    for key, (hint, _, words) in rules.items():
        assert fields.describe(hint, words) in cells[key], key


def test_load_test_reads_and_crops_only_the_test_batch(tmp_path, rng):
    """load_test gives load_data's test split, cropped for convnet5, and
    needs no training batch."""
    data = tmp_path / "data"
    data.mkdir()
    write_cifar10(data, 10, 7, rng)
    exp = load_experiment(_write(tmp_path, f"model: convnet5\ndata: {{dir: {data}, val_size: 5}}\n"))
    expect = exp.load_data()[2]
    for path in cifar10_paths(data)["train"]:
        Path(path).unlink()
    test = exp.load_test()
    assert test.images.shape == (7, 3, 24, 24) and test.role == "test"
    assert test.images.tobytes() == expect.images.tobytes()
    assert np.array_equal(test.labels, expect.labels)


def test_load_data_copies_each_split_once(tmp_path, monkeypatch):
    """load_data copies the kept training images once, in the order of the
    permuted split, so its peak stays near the splits it returns; it used
    to copy the whole permuted split first."""
    n, val_size, subset = 3000, 300, 600
    rng = np.random.default_rng(0)
    full = DatasetSplit(rng.random((n, 1, 28, 28), dtype=np.float32),
                        rng.integers(0, 10, n), "train")
    monkeypatch.setattr(Experiment, "_read", lambda self, name: full)
    exp = load_experiment(_write(tmp_path, f"model: mlp3\ndata: {{dir: /d, val_size: {val_size}, "
                                           f"train_subset: {subset}}}\n"))
    tracemalloc.start()
    try:
        train, val, _ = exp.load_data()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(s.images.nbytes + s.labels.nbytes for s in (train, val))
    assert peak < 1.1 * kept, (peak, kept)
    rest, expect_val = train_val_split(full, val_size, exp.train_cfg.seed)
    assert train.images.tobytes() == rest.images[:subset].tobytes()
    assert np.array_equal(train.labels, rest.labels[:subset])
    assert val.images.tobytes() == expect_val.images.tobytes()


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
