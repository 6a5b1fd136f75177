"""End-to-end CLI runs on a small MNIST subset and on random MNIST and
CIFAR-10 files, plus the one-line failure contract."""

import math
import struct
from pathlib import Path

import pytest
import yaml

from jointprune.checkpoint import checkpoint_from_network, load_checkpoint, save_checkpoint
from jointprune.cli import main
from jointprune.config import load_experiment
from jointprune.datasets import mnist_paths
from jointprune.layers import fc, flatten
from jointprune.models import get_preset
from jointprune.network import Network

from datafiles import edit_meta, read_report, write_cifar10, write_edited_checkpoint, write_mnist


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, data_dir):
    """Config file plus a trained dense checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = root / "exp.yaml"
    cfg.write_text(f"""
model: mlp3
seed: 0
data:
  dir: {data_dir}
  val_size: 1000
  train_subset: 2000
train:
  optimizer: sgd
  lr: 0.1
  momentum: 0.9
  baseline_epochs: 2
  batch_size: 100
prune:
  warmup_epochs: 1
  finetune_epochs: 2
  prune_ramp_epochs: 2
  adadelta_lr: 0.1
  rate_grid: [0.2, 0.5, 1.0]
outputs: {out}
""")
    assert main(["train-dense", str(cfg)]) == 0
    return cfg, out


def test_train_dense_outputs(workspace, capsys):
    _, out = workspace
    ckpt = load_checkpoint(out / "dense.ckpt")
    assert ckpt.meta["epochs"] == 2
    header, rows = read_report(out / "dense_history.csv")
    assert header[0] == "phase"
    assert len(rows) == 2  # one row per epoch
    assert all(r[0] == "dense" for r in rows)


def test_sweep_sensitivity(workspace, capsys):
    cfg, out = workspace
    assert main(["sweep-sensitivity", str(cfg)]) == 0
    line = capsys.readouterr().out
    assert "baseline=" in line
    header, rows = read_report(out / "sensitivity.csv")
    assert header == ["layer_index", "winner_rate", "accuracy_drop"]
    assert len(rows) == 2 * 3  # two maskable layers x three grid rates
    # rate 1.0 rows report exactly zero drop
    for r in rows:
        if float(r[1]) == 1.0:
            assert float(r[2]) == 0.0


def test_prune_and_eval(workspace, capsys):
    cfg, out = workspace
    assert main(["prune", str(cfg)]) == 0
    assert "test_acc=" in capsys.readouterr().out
    ckpt = load_checkpoint(out / "jp.ckpt")
    rates = load_experiment(cfg).mask_cfg.per_layer_rate
    assert ckpt.winner_cfg["per_layer_rate"] == {str(k): float(v) for k, v in rates.items()}
    assert ckpt.masks  # static weight masks present

    assert main(["eval", str(cfg), "--mode", "jp"]) == 0
    assert "acti_percent=" in capsys.readouterr().out
    header, rows = read_report(out / "sparsity_jp.csv")
    assert header == ["layer_index", "size", "nonzero_frac"]
    assert len(rows) == 3  # two masked layers + final output

    assert main(["eval", str(cfg), "--mode", "dense"]) == 0
    capsys.readouterr()
    _, dense_rows = read_report(out / "sparsity_dense.csv")
    # masks keep strictly fewer activations than the dense run
    jp_frac = {r[0]: float(r[2]) for r in rows}
    dense_frac = {r[0]: float(r[2]) for r in dense_rows}
    for layer in ("2", "5"):
        assert jp_frac[layer] < dense_frac[layer]


def test_report_macs(workspace, capsys):
    cfg, out = workspace
    assert main(["report-macs", str(cfg), "--checkpoint", str(out / "dense.ckpt"),
                 "--batch", "64"]) == 0
    assert "mac_percent=" in capsys.readouterr().out
    header, rows = read_report(out / "macs.csv")
    assert rows[-1][0] == "Total"
    for r in rows:
        assert float(r[header.index("weight_density")]) == 1.0  # dense model
    # pruned model: fewer effective MACs than its dense count
    assert main(["report-macs", str(cfg), "--mode", "jp", "--batch", "64"]) == 0
    capsys.readouterr()
    _, pruned = read_report(out / "macs.csv")
    total = pruned[-1]
    assert float(total[header.index("mac_percent")]) < 100.0


def test_bench_fc(workspace, capsys):
    cfg, out = workspace
    assert main(["bench-fc", str(cfg), "--n-in", "256", "--n-out", "256",
                 "--rate", "0.25", "--trials", "5"]) == 0
    assert "speedup=" in capsys.readouterr().out
    header, rows = read_report(out / "bench_fc.csv")
    assert len(rows) == 1
    assert float(rows[0][header.index("speedup")]) > 0


def test_predict_threshold_study(workspace, capsys):
    cfg, out = workspace
    assert main(["predict-threshold-study", str(cfg),
                 "--eps-grid", "1.0", "0.1"]) == 0
    assert "exact_acc=" in capsys.readouterr().out
    header, rows = read_report(out / "threshold_prediction.csv")
    assert header == ["downsample_rate", "accuracy", "drop_vs_exact"]
    assert len(rows) == 2


def test_cli_failure_paths(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["train-dense", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: resnet\ndata: {dir: /d}\n")
    assert main(["train-dense", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: model must be a str in {mlp3, lenet4, convnet5, leaky6}, got 'resnet'\n")


def _config(tmp_path, data_dir, extra=""):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"model: mlp3\ndata: {{dir: {data_dir}}}\noutputs: {tmp_path / 'out'}\n{extra}")
    return str(cfg)


def _one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_cli_missing_checkpoint_is_one_line_error(tmp_path, capsys):
    """Named by --checkpoint or not, a checkpoint that cannot be read makes
    one error line and no ``outputs`` directory."""
    cfg, missing = _config(tmp_path, tmp_path), tmp_path / "missing.ckpt"
    for flags, path in [(["--checkpoint", str(missing)], missing),
                        ([], tmp_path / "out" / "jp.ckpt")]:
        assert main(["eval", cfg, *flags]) == 1
        _one_line_error(capsys, str(path))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, index, key", [("mlp3", 1, "n_out"), ("leaky6", 4, "tag"),
                                                ("mlp3", 1, "kind"), ("leaky6", 1, "slope")])
def test_cli_eval_on_checkpoint_missing_geometry_is_one_line_error(tmp_path, capsys,
                                                                   preset, index, key):
    ckpt = checkpoint_from_network(get_preset(preset).build())
    entry = ckpt.arch[index]
    if key == "kind":
        ckpt.arch[index] = {"geometry": entry["geometry"]}
    else:
        ckpt.arch[index] = {"kind": entry["kind"],
                            "geometry": {k: v for k, v in entry["geometry"].items() if k != key}}
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    assert main(["eval", _config(tmp_path, tmp_path), "--checkpoint", str(path)]) == 1
    _one_line_error(capsys, "lacks", key)


def test_cli_missing_data_dir_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["train-dense", _config(tmp_path, missing)]) == 1
    _one_line_error(capsys, str(missing))


def test_cli_malformed_value_names_key_path(tmp_path, capsys):
    cfg = _config(tmp_path, tmp_path, "train: {lr: abc}\n")
    assert main(["train-dense", cfg]) == 1
    _one_line_error(capsys, "train.lr", "'abc'")


@pytest.mark.parametrize("subset", [0, -5])
def test_cli_train_subset_below_one_is_one_line_error(tmp_path, capsys, rng, subset):
    """``data.train_subset: 0`` used to train on the whole split, and -5 on
    an empty one that exited 0 and saved an untrained net."""
    cfg = Path(_mnist_config(tmp_path, rng, 100, 10, "train: {baseline_epochs: 1}\n"))
    doc = yaml.safe_load(cfg.read_text())
    doc["data"]["train_subset"] = subset
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train-dense", str(cfg)]) == 1
    _one_line_error(capsys, "data.train_subset", str(subset))
    assert not (tmp_path / "out" / "dense.ckpt").exists()


@pytest.mark.parametrize("command", [
    ["train-dense"],
    ["bench-fc", "--n-in", "64", "--n-out", "64", "--trials", "1"],
], ids=["train-dense", "bench-fc"])
def test_cli_negative_seed_is_one_line_error(tmp_path, capsys, command):
    """``seed: -1`` used to end in numpy's ``expected non-negative integer``
    traceback in both commands that seed a generator from it."""
    cfg = _config(tmp_path, tmp_path, "seed: -1\n")
    assert main([command[0], cfg, *command[1:]]) == 1
    _one_line_error(capsys, "seed must be an int >= 0, got -1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, line", [
    ("prune: {adadelta_lr: 0}\n", "prune.adadelta_lr must be > 0, got 0"),
    ("train: {lr: 0}\n", "train.lr must be > 0, got 0"),
    ("train: {optimizer: sgd, momentum: 1}\n", "train.momentum must be in [0,1), got 1.0"),
], ids=["adadelta-lr", "lr", "sgd-momentum"])
def test_cli_bad_value_names_its_yaml_key(tmp_path, capsys, extra, line):
    """``prune.adadelta_lr: 0`` and ``train.lr: 0`` used to print the same
    ``lr must be > 0, got 0.0``."""
    assert main(["train-dense", _config(tmp_path, tmp_path, extra)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()


def _mnist_config(tmp_path, rng, n_train, n_test, extra=""):
    """A mlp3 config over random IDX files of ``n_train`` and ``n_test``
    digits, with 50 of the training digits held out for validation."""
    data = tmp_path / "data"
    data.mkdir()
    write_mnist(data, "train", n_train, rng)
    write_mnist(data, "test", n_test, rng)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"model: mlp3\ndata: {{dir: {data}, val_size: 50}}\n"
                   f"outputs: {tmp_path / 'out'}\n{extra}")
    return str(cfg)


def test_cli_unknown_optimizer_is_one_line_error(tmp_path, capsys, rng):
    cfg = _mnist_config(tmp_path, rng, 100, 10,
                        "train: {optimizer: adam, baseline_epochs: 1}\n")
    assert main(["train-dense", cfg]) == 1
    _one_line_error(capsys, "train.optimizer must be a str in {sgd, adadelta}, got 'adam'")
    assert not (tmp_path / "out" / "dense.ckpt").exists()


def test_cli_eval_with_stat_layers_beyond_the_checkpoint_is_one_line_error(tmp_path, capsys,
                                                                          rng):
    """eval reads its stat layers from the config's preset, mlp3's 2 and 5,
    which a two-layer checkpoint lacks: it used to end in an IndexError."""
    cfg = _mnist_config(tmp_path, rng, 60, 10)
    net = Network([flatten(), fc(784, 10)], (1, 28, 28))
    path = tmp_path / "short.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    assert main(["eval", cfg, "--checkpoint", str(path), "--mode", "dense"]) == 1
    _one_line_error(capsys, "stat layer index 2 out of range for 2 layers")


def test_cli_masking_commands_attach_the_config_rates(tmp_path, capsys, rng):
    """A dense checkpoint holds no winner rates: eval and report-macs in
    --mode jp, and predict-threshold-study, attach the experiment's, and
    --mode dense runs without them."""
    cfg = _mnist_config(tmp_path, rng, 300, 100,
                        "seed: 0\ntrain: {baseline_epochs: 1, batch_size: 50}\n")
    out = tmp_path / "out"
    assert main(["train-dense", cfg]) == 0
    dense = str(out / "dense.ckpt")
    assert load_checkpoint(dense).winner_cfg is None

    frac = {}
    for mode in ("jp", "dense"):
        assert main(["eval", cfg, "--checkpoint", dense, "--mode", mode]) == 0
        frac[mode] = {r[0]: float(r[2]) for r in read_report(out / f"sparsity_{mode}.csv")[1]}
    assert frac["jp"]["2"] <= 0.12 and frac["jp"]["5"] <= 0.24  # mlp3's reference rates
    assert frac["dense"]["2"] > frac["jp"]["2"]

    mac_percent = {}
    for mode in ("dense", "jp"):
        assert main(["report-macs", cfg, "--checkpoint", dense, "--batch", "64",
                     "--mode", mode]) == 0
        header, rows = read_report(out / "macs.csv")
        mac_percent[mode] = float(rows[-1][header.index("mac_percent")])
    assert mac_percent["jp"] < mac_percent["dense"]

    assert main(["predict-threshold-study", cfg, "--checkpoint", dense,
                 "--eps-grid", "1.0", "0.5"]) == 0
    assert len(read_report(out / "threshold_prediction.csv")[1]) == 2
    assert capsys.readouterr().err == ""


def _test_acc(line):
    return line.split("test_acc=")[1].split()[0]


def test_cli_eval_dense_reads_the_dense_checkpoint(tmp_path, capsys, rng):
    """With no --checkpoint, eval --mode dense reads dense.ckpt (it used to
    read jp.ckpt with its masks off): after train-dense alone it prints the
    test accuracy train-dense printed."""
    cfg = _mnist_config(tmp_path, rng, 300, 100,
                        "seed: 0\ntrain: {baseline_epochs: 1, batch_size: 50}\n")
    assert main(["train-dense", cfg]) == 0
    trained = _test_acc(capsys.readouterr().out)
    assert main(["eval", cfg, "--mode", "dense"]) == 0
    assert _test_acc(capsys.readouterr().out) == trained
    assert not (tmp_path / "out" / "jp.ckpt").exists()


def test_cli_test_only_commands_read_only_the_test_files(tmp_path, capsys, rng):
    """eval, report-macs and predict-threshold-study run with the training
    files gone; --mode dense runs a jp checkpoint with no activation masks."""
    cfg = _mnist_config(tmp_path, rng, 300, 100,
                        "seed: 0\ntrain: {baseline_epochs: 1, batch_size: 50}\n"
                        "prune: {warmup_epochs: 1, finetune_epochs: 1}\n")
    out = tmp_path / "out"
    assert main(["train-dense", cfg]) == 0
    assert main(["prune", cfg]) == 0
    for path in mnist_paths(tmp_path / "data")["train"]:
        Path(path).unlink()
    jp = str(out / "jp.ckpt")

    frac, mac_percent = {}, {}
    for mode in ("dense", "jp"):
        assert main(["eval", cfg, "--checkpoint", jp, "--mode", mode]) == 0
        frac[mode] = {r[0]: float(r[2]) for r in read_report(out / f"sparsity_{mode}.csv")[1]}
        assert main(["report-macs", cfg, "--mode", mode, "--batch", "64"]) == 0
        header, rows = read_report(out / "macs.csv")
        mac_percent[mode] = float(rows[-1][header.index("mac_percent")])
    assert frac["jp"]["2"] <= 0.12 < frac["dense"]["2"]
    assert mac_percent["jp"] < mac_percent["dense"]
    assert main(["predict-threshold-study", cfg, "--eps-grid", "1.0"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["train-dense", cfg]) == 1  # the training files are gone
    _one_line_error(capsys, "train-images-idx3-ubyte")


@pytest.mark.parametrize("command, extra, needle", [
    ("prune", "prune: {weight_targets: {2: 0.5}}\n", "weight target of layer 2: not a weight"),
    ("prune", "prune: {weight_targets: {1: 1.5}}\n",
     "prune.weight_targets must be a dict of int to float in (0,1], got {1: 1.5}"),
    ("prune", "prune: {weight_targets: {1: 0.0}}\n",
     "prune.weight_targets must be a dict of int to float in (0,1], got {1: 0.0}"),
    ("train-dense", "train: {optimizer: sgd, rho: 1.5}\n", "rho must be in (0,1), got 1.5"),
    ("train-dense", "train: {optimizer: sgd, eps: -1}\n", "eps must be > 0, got -1"),
], ids=["target-on-relu", "target-above-one", "target-zero", "sgd-rho", "sgd-eps"])
def test_cli_bad_training_value_fails_before_training(tmp_path, capsys, rng, command, extra,
                                                      needle):
    """A target off the weight layers or above 1 used to keep the layer
    dense and exit 0, a zero target failed only at the first prune, and an
    sgd run's Adadelta settings only in prune's finetune phase.  Each is now
    a one-line error before the first epoch."""
    cfg = _mnist_config(tmp_path, rng, 100, 10, "seed: 0\n" + extra)
    out = tmp_path / "out"
    out.mkdir()
    save_checkpoint(checkpoint_from_network(get_preset("mlp3").build()), out / "dense.ckpt")
    dense = (out / "dense.ckpt").read_bytes()
    assert main([command, cfg]) == 1
    _one_line_error(capsys, needle)
    assert [p.name for p in out.iterdir()] == ["dense.ckpt"]
    assert (out / "dense.ckpt").read_bytes() == dense


def test_cli_sweep_prune_and_bench_fc_on_random_digits(tmp_path, capsys, rng):
    """sweep-sensitivity, prune (with its dropout reconciliation) and
    bench-fc after a dense run on random IDX files."""
    cfg = _mnist_config(tmp_path, rng, 300, 100,
                        "seed: 0\ntrain: {baseline_epochs: 1, batch_size: 50}\n"
                        "prune: {warmup_epochs: 1, finetune_epochs: 2, prune_ramp_epochs: 2,"
                        " rate_grid: [0.2, 0.5, 1.0]}\n")
    out = tmp_path / "out"
    exp = load_experiment(cfg)
    assert main(["train-dense", cfg]) == 0

    assert main(["sweep-sensitivity", cfg]) == 0
    header, rows = read_report(out / "sensitivity.csv")
    assert header == ["layer_index", "winner_rate", "accuracy_drop"]
    assert len(rows) == 2 * 3  # two maskable layers x three grid rates
    assert [float(r[2]) for r in rows if float(r[1]) == 1.0] == [0.0, 0.0]

    assert main(["prune", cfg]) == 0
    ckpt = load_checkpoint(out / "jp.ckpt")
    rates = exp.mask_cfg.per_layer_rate
    assert ckpt.winner_cfg["per_layer_rate"] == {str(k): float(v) for k, v in rates.items()}
    targets = exp.train_cfg.weight_target_density
    assert sorted(ckpt.masks) == [f"layer{i}.w" for i in sorted(targets)]
    for i, target in targets.items():
        mask = ckpt.masks[f"layer{i}.w"]
        assert abs(mask.mean() - target) <= 1 / mask.size
    dropouts = [(j, d["geometry"]["rate"]) for j, d in enumerate(ckpt.arch)
                if d["kind"] == "dropout"]
    assert dropouts == [(3, 0.2 * math.sqrt(rates[2])), (6, 0.2 * math.sqrt(rates[5]))]

    assert main(["bench-fc", cfg, "--n-in", "256", "--n-out", "256", "--trials", "5"]) == 0
    header, rows = read_report(out / "bench_fc.csv")
    assert len(rows) == 1 and float(rows[0][header.index("speedup")]) > 0
    assert capsys.readouterr().err == ""


def test_cli_eval_on_empty_test_split_is_one_line_error(tmp_path, capsys, rng):
    data = tmp_path / "data"
    data.mkdir()
    write_mnist(data, "train", 20, rng)
    write_mnist(data, "test", 0, rng)
    ckpt = tmp_path / "dense.ckpt"
    save_checkpoint(checkpoint_from_network(get_preset("mlp3").build()), ckpt)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"model: mlp3\ndata: {{dir: {data}, val_size: 5}}\n"
                   f"outputs: {tmp_path / 'out'}\n")
    assert main(["eval", str(cfg), "--checkpoint", str(ckpt), "--mode", "dense"]) == 1
    _one_line_error(capsys, "empty test split")


def test_cli_sweep_rate_above_one_is_one_line_error(tmp_path, capsys, rng):
    data = tmp_path / "data"
    data.mkdir()
    write_mnist(data, "train", 20, rng)
    write_mnist(data, "test", 5, rng)
    ckpt = tmp_path / "dense.ckpt"
    save_checkpoint(checkpoint_from_network(get_preset("mlp3").build()), ckpt)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"model: mlp3\ndata: {{dir: {data}, val_size: 5}}\n"
                   f"prune: {{rate_grid: [0.3, 1.5]}}\noutputs: {tmp_path / 'out'}\n")
    assert main(["sweep-sensitivity", str(cfg), "--checkpoint", str(ckpt)]) == 1
    _one_line_error(capsys, "winner rate", "1.5")
    assert not (tmp_path / "out" / "sensitivity.csv").exists()


_CONV1 = {"in_ch": 1, "out_ch": 20, "kernel": 5, "stride": 1, "pad": 2}  # lenet4's layer 0


@pytest.mark.parametrize("preset, index, entry, needle", [
    ("mlp3", 2, {"kind": "gelu", "geometry": {}}, "unknown layer kind 'gelu'"),
    ("leaky6", 1, {"kind": "leaky_relu", "geometry": {"slope": 1.5}},
     "leaky_relu slope must be in (0,1), got 1.5"),
    ("mlp3", 3, {"kind": "dropout", "geometry": {"rate": 1.0}},
     "dropout rate must be in [0,1), got 1.0"),
    ("lenet4", 0, {"kind": "conv2d", "geometry": _CONV1 | {"stride": 0}},
     "conv2d stride must be an int >= 1, got 0"),
    ("lenet4", 0, {"kind": "conv2d", "geometry": _CONV1 | {"out_ch": -20}},
     "conv2d out_ch must be an int >= 1, got -20"),
    ("lenet4", 0, {"kind": "conv2d", "geometry": _CONV1 | {"kernel": 2.5}},
     "conv2d kernel must be an int >= 1, got 2.5"),
    ("lenet4", 2, {"kind": "maxpool", "geometry": {"window": 2, "stride": 0, "pad": 0}},
     "maxpool stride must be an int >= 1, got 0"),
    ("leaky6", 1, {"kind": "leaky_relu", "geometry": {"slope": "x"}},
     "leaky_relu slope must be in (0,1), got 'x'"),
    ("leaky6", 4, {"kind": "skip_save", "geometry": {"tag": [1]}},
     "skip_save tag must be a str, got [1]"),
])
def test_cli_eval_on_checkpoint_with_bad_layer_is_one_line_error(tmp_path, capsys,
                                                                 preset, index, entry, needle):
    ckpt = checkpoint_from_network(get_preset(preset).build())
    ckpt.arch[index] = entry
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    assert main(["eval", _config(tmp_path, tmp_path), "--checkpoint", str(path)]) == 1
    _one_line_error(capsys, needle)


@pytest.mark.parametrize("dtype", ["foo", "<i4"])
def test_cli_report_macs_on_checkpoint_with_non_float_dtype_is_one_line_error(tmp_path, capsys,
                                                                           dtype):
    """"foo" used to end in a traceback, and "<i4" loaded an int32 mlp3
    whose weights were all truncated to 0."""
    ckpt = checkpoint_from_network(get_preset("mlp3").build())
    ckpt.dtype = dtype
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    assert main(["report-macs", _config(tmp_path, tmp_path), "--checkpoint", str(path)]) == 1
    _one_line_error(capsys, f"checkpoint dtype {dtype!r} is not a float type")


@pytest.mark.parametrize("edit, needles", [
    (edit_meta(lambda d: d.update(input_shape=[1, "x", 28])),
     ["input shape must be a list of int >= 1, got (1, 'x', 28)"]),
    (edit_meta(lambda d: d.pop("param_order")), ["malformed payload: 'param_order'"]),
    (lambda parts: [struct.pack("<I", 8), b"not json", *parts[2:]],
     ["malformed payload: Expecting value"]),
    (lambda parts: [*parts[:4], struct.pack("<B", 3), b"zzz", *parts[6:]],
     ["malformed payload: data type 'zzz' not understood"]),
    (edit_meta(lambda d: d.update(arch=5)), ["malformed payload: 'int' object is not iterable"]),
], ids=["input-shape-str", "no-param-order", "meta-not-json", "param-dtype-zzz", "arch-int"])
def test_cli_report_macs_on_malformed_payload_is_one_line_error(tmp_path, capsys, edit, needles):
    """Each file's length and CRC hold; each used to end in a traceback."""
    path = tmp_path / "bad.ckpt"
    write_edited_checkpoint(path, checkpoint_from_network(get_preset("mlp3").build()), edit)
    assert main(["report-macs", _config(tmp_path, tmp_path), "--checkpoint", str(path)]) == 1
    _one_line_error(capsys, *needles)


@pytest.mark.parametrize("argv, needles", [
    (["report-macs", "x.yaml", "--batch", "abc"],
     ["error: argument --batch: invalid int value: 'abc'"]),
    (["eval", "x.yaml", "--mode", "bogus"], ["argument --mode: invalid choice", "'bogus'"]),
    (["bogus", "x.yaml"], ["argument command: invalid choice", "'bogus'"]),
    (["eval"], ["the following arguments are required: config"]),
    (["eval", "x.yaml", "--mode", "wp"], ["argument --mode: invalid choice", "'wp'"]),
    (["report-macs", "x.yaml", "--masked"], ["unrecognized arguments: --masked"]),
], ids=["batch-abc", "mode-bogus", "unknown-command", "no-config", "mode-wp", "masked"])
def test_cli_usage_error_is_one_line_error(capsys, argv, needles):
    assert main(argv) == 1
    _one_line_error(capsys, *needles)


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jointprune")


@pytest.mark.parametrize("argv, needles", [
    (["bench-fc", "--n-in", "0"], ["fc n_in must be an int >= 1, got 0"]),
    (["bench-fc", "--n-out", "0"], ["fc n_out must be an int >= 1, got 0"]),
    (["report-macs", "--batch", "-5"], ["--batch must be an int >= 1, got -5"]),
    (["report-macs", "--batch", "0"], ["--batch must be an int >= 1, got 0"]),
], ids=["n-in-0", "n-out-0", "batch-minus-5", "batch-0"])
def test_cli_size_below_one_is_one_line_error(tmp_path, capsys, argv, needles):
    assert main([argv[0], _config(tmp_path, tmp_path), *argv[1:]]) == 1
    _one_line_error(capsys, *needles)


@pytest.mark.parametrize("model, input_shape, n_masked, n_weight", [
    ("convnet5", (3, 24, 24), 4, 5),
    ("leaky6", (3, 32, 32), 5, 6),
], ids=["convnet5", "leaky6"])
def test_cli_chain_on_random_cifar10(tmp_path, capsys, rng, model, input_shape, n_masked,
                                     n_weight):
    """train-dense, prune, eval and report-macs through the committed config,
    cut to random CIFAR-10 batches and one epoch per phase: the CIFAR branch
    of Experiment.load_data, with its train subset and convnet5's crop."""
    data = tmp_path / "data"
    data.mkdir()
    write_cifar10(data, 24, 30, rng)
    doc = yaml.safe_load((Path(__file__).parents[1] / "configs" / f"{model}.yaml").read_text())
    doc["data"].update(dir=str(data), val_size=20, train_subset=60)
    doc["train"]["baseline_epochs"] = 1
    doc["prune"].update(warmup_epochs=1, finetune_epochs=1)
    doc["outputs"] = str(tmp_path / "out")
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    for command in ("train-dense", "prune", "eval", "report-macs"):
        assert main([command, str(cfg)]) == 0, command
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    assert load_checkpoint(out / "dense.ckpt").input_shape == input_shape
    rows = {name: len(read_report(out / name)[1])
            for name in ("dense_history.csv", "prune_history.csv", "sparsity_jp.csv", "macs.csv")}
    assert rows == {"dense_history.csv": 1, "prune_history.csv": 2,  # warm-up + finetune
                    "sparsity_jp.csv": n_masked + 1, "macs.csv": n_weight + 1}  # output, Total
