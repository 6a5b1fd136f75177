"""Stored-input fuzz: a checkpoint, a config and the data files, each with
one field set to each value of a fixed list (or removed), run in process
through ``cli.main``.  Every run returns 0, or 1 with exactly one stderr
line, and never raises.  A case that fails is mended in the library, never
dropped from a list.  Each test reports every failing case at once."""

import copy
import dataclasses
import json
import math
import struct
import traceback
from pathlib import Path

import numpy as np
import pytest
import yaml

from jointprune import checkpoint as ckpt_io
from jointprune import layers as L
from jointprune.checkpoint import checkpoint_from_network, save_checkpoint
from jointprune.cli import MODES, main
from jointprune.config import KEYS, load_experiment
from jointprune.datasets import CIFAR_RECORD_BYTES, cifar10_paths, mnist_paths
from jointprune.errors import ConfigError
from jointprune.models import get_preset
from jointprune.network import Network
from jointprune.sparsity import WinnerRateConfig

from datafiles import edit_meta, write_cifar10, write_edited_checkpoint, write_mnist

# None, a bool, 0, -1, a fraction, NaN, two strings, two lists, two dicts
# and two sizes far past what any array can hold
HUGE = [2**40, 1e308]
VALUES = [None, True, 0, -1, 1.5, math.nan, "", "x", [], [1], {}, {"a": 1}, *HUGE]
DELETE = object()  # in place of a value: the field is removed
# dtype strings in place of a stored param's "<f4": other floats, a
# byte-swapped one, ints, a bool, a complex, and types that are no number
DTYPES = ["<f8", "<f2", ">f4", "<i4", "|u1", "|b1", "<c8", "|V4", "<U1", "|O"]
# config values past VALUES: ones that some keys take
CONFIG_VALUES = [*VALUES, DELETE, 1, 0.5, "reference", {2: 0.5}, [0.5, 1.0]]
_BELOW_1, _ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
_TINY = math.ulp(0.0)  # the least float > 0
# each key's own boundary values: just inside its rule, just outside it,
# NaN, and a value of the wrong type (a key whose rule is only a type gets
# one of the type and one of another)
BOUNDARY_VALUES = {
    "model": ["lenet4", "lenet", math.nan, 4],
    "seed": [0, -1, math.nan, 0.5],
    "outputs": ["out", 5, math.nan, ["out"]],
    "data.dir": ["no-such-dir", 5, math.nan, ["data"]],
    "data.val_size": [59, 60, math.nan, 10.5],
    "data.train_subset": [1, 0, math.nan, 1.5],
    "train.optimizer": ["sgd", "SGD", math.nan, 1],
    "train.lr": [_TINY, 0.0, math.nan, "fast"],
    "train.momentum": [_BELOW_1, 1.0, math.nan, "x"],
    "train.rho": [_BELOW_1, 1.0, math.nan, "x"],
    "train.eps": [_TINY, 0.0, math.nan, "x"],
    "train.baseline_epochs": [0, -1, math.nan, 0.5],
    "train.batch_size": [1, 0, math.nan, 1.5],
    "train.base_dropout": [_BELOW_1, 1.0, math.nan, "x"],
    "prune.winner_rates": [{2: 1.0}, {2: _ABOVE_1}, {2: math.nan}, [0.5]],
    "prune.weight_targets": [{1: _TINY}, {1: 0.0}, {1: math.nan}, [0.5]],
    "prune.l1_strength": [0.0, -_TINY, math.nan, "x"],
    "prune.lr_scale": [0.01, math.nextafter(0.01, 0.0), math.nan, "x"],
    "prune.adadelta_lr": [_TINY, 0.0, math.nan, "x"],
    "prune.warmup_epochs": [0, -1, math.nan, 0.5],
    "prune.finetune_epochs": [0, -1, math.nan, 0.5],
    "prune.prune_ramp_epochs": [0, -1, math.nan, 0.5],
    "prune.rate_grid": [[0.5], [True], [math.nan], {0: 0.5}],
    "prune.tolerable_drop": [1.0, _ABOVE_1, math.nan, "x"],
    "sparsity.downsample_rate": [1.0, _ABOVE_1, math.nan, "x"],
    "sparsity.selection_mode": ["predicted_threshold", "exact", math.nan, 1],
}
# keys that only scale the work of a run: they take no huge value, which
# would make a run that fits its inputs take forever, not fail
EPOCH_KEYS = {"train.baseline_epochs", "prune.warmup_epochs", "prune.finetune_epochs",
              "prune.prune_ramp_epochs"}
# IDX header words: sizes around the 4 test digits and their 28x28 dims,
# both magics, and the largest u32
IDX_WORDS = [0, 1, 3, 5, 27, 29, 2049, 2051, 2**32 - 1]


def _run(argv, capsys, case, failures):
    """Runs ``argv`` through ``cli.main`` and records ``case`` in
    ``failures`` unless it returns 0, or 1 with one stderr line."""
    try:
        code = main(argv)
    except Exception as e:  # any exception is the fault sought: record where it was raised
        where = traceback.extract_tb(e.__traceback__)[-1]
        failures.append((case, f"{where.filename}:{where.lineno} raised "
                               f"{type(e).__name__}: {str(e)[:200]}"))
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    if not (code == 0 or code == 1 and err.startswith("error: ") and err.count("\n") == 1):
        failures.append((case, f"returned {code} with stderr {err[:300]!r}"))


def _write_config(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture(scope="module")
def mnist(tmp_path_factory):
    """A dir of random IDX files, 60 training and 4 test digits, and the
    doc of an mlp3 config of 0 epochs over them."""
    root = tmp_path_factory.mktemp("mnist")
    rng = np.random.default_rng(0)
    (root / "data").mkdir()
    write_mnist(root / "data", "train", 60, rng)
    write_mnist(root / "data", "test", 4, rng)
    return {"model": "mlp3", "seed": 0, "data": {"dir": str(root / "data"), "val_size": 10},
            "train": {"baseline_epochs": 0}, "outputs": str(root / "out")}


def _small_checkpoint():
    """The checkpoint of an mlp3-shaped 784-8-8-10 network with winner
    rates, one static weight mask and run meta: every kind of stored
    field, in 26 KB."""
    specs = [L.flatten(), L.fc(784, 8), L.relu(), L.dropout(0.2), L.fc(8, 8), L.relu(),
             L.dropout(0.2), L.fc(8, 10)]
    net = Network(specs, (1, 28, 28), seed=0)
    net.layers[4].w.set_mask(np.arange(64).reshape(8, 8) % 2)
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={2: 0.5, 5: 0.5}))
    return checkpoint_from_network(net, meta={"seed": 0, "epochs": 0})


def _leaves(node, path=()):
    """The paths of a JSON document's leaves: its scalars and empty
    containers."""
    if isinstance(node, (dict, list)) and node:
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from _leaves(node[key], (*path, key))
    else:
        yield path


def _set(doc, path, value):
    """Sets the field at ``path`` of a JSON or YAML document to ``value``,
    or removes it."""
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is not DELETE:
        doc[last] = value
    elif isinstance(doc, list) or last in doc:
        del doc[last]


def test_every_checkpoint_meta_leaf(tmp_path, capsys, mnist):
    """Each leaf of the meta JSON (arch kinds and geometry, input shape,
    dtype, winner config, run meta, param order) set to each value, or
    removed, under a valid CRC, run by ``eval`` with the stored winner
    masks; the layer geometry and input shape cases also run by
    ``report-macs`` without them, as the MAC count walks that geometry.  The
    huge sizes include the first and last fc sizes that once made the load
    allocate a zero-filled network before comparing any stored shape."""
    cfg = _write_config(tmp_path / "exp.yaml", mnist)
    ckpt, path, failures = _small_checkpoint(), tmp_path / "m.ckpt", []
    leaves = list(_leaves(json.loads(bytes(ckpt_io._payload_parts(ckpt)[1]))))
    # arch 19 (8 kinds, 11 geometry), input shape 3, dtype, winner config 5,
    # run meta 2, param order 6
    assert len(leaves) == 36
    for leaf in leaves:
        for value in [*VALUES, DELETE]:
            write_edited_checkpoint(path, ckpt, edit_meta(lambda d: _set(d, leaf, value)))
            _run(["eval", cfg, "--checkpoint", str(path)], capsys, (leaf, value), failures)
            if leaf[0] in ("arch", "input_shape"):
                _run(["report-macs", cfg, "--checkpoint", str(path), "--mode", "dense",
                      "--batch", "2"], capsys, (leaf, value), failures)
    assert not failures, "\n".join(map(str, failures))


# entries inserted into the arch at each position: a kind with no params,
# a weight layer that fits between the hidden layers, and a flatten
ARCH_INSERTS = [{"kind": "relu", "geometry": {}},
                {"kind": "fc", "geometry": {"n_in": 8, "n_out": 8}},
                {"kind": "flatten", "geometry": {}}]


def _arch_edit_failures(tmp_path, capsys, mnist, edits):
    """The failures of each ``(case, edit)`` of ``edits``, an in-place edit of
    the arch list, on the small checkpoint with its winner rates and without
    them (as train-dense writes it), each run by ``eval`` and ``report-macs``
    in both modes.  The config's preset is mlp3, whose masked layers 2 and 5
    ``eval`` reports whatever the checkpoint's arch."""
    cfg = _write_config(tmp_path / "exp.yaml", mnist)
    path, failures = tmp_path / "m.ckpt", []
    jp = _small_checkpoint()
    for ckpt in (jp, dataclasses.replace(jp, winner_cfg=None)):
        for case, edit in edits:
            write_edited_checkpoint(path, ckpt, edit_meta(lambda d: edit(d["arch"])))
            for argv in (["eval"], ["report-macs", "--batch", "2"]):
                for mode in MODES:
                    _run([*argv, cfg, "--checkpoint", str(path), "--mode", mode], capsys,
                         (case, ckpt.winner_cfg is not None, argv[0], mode), failures)
    return failures


def test_every_arch_entry_removed(tmp_path, capsys, mnist):
    """Each arch entry removed, and the arch cut short before each entry.
    On the checkpoint without rates, every cut to fewer than six layers used
    to end in a traceback: ``eval --mode dense`` of one to five layers in an
    IndexError on mlp3's stat layers; both commands of no layer in an
    IndexError on the logits; and ``report-macs --mode dense`` of the
    flatten alone, which has no weight layer, in a ZeroDivisionError."""
    n = len(_small_checkpoint().arch)
    edits = [(("remove", i), lambda arch, i=i: arch.pop(i)) for i in range(n)]
    edits += [(("cut", i), lambda arch, i=i: arch.__delitem__(slice(i, None))) for i in range(n)]
    failures = _arch_edit_failures(tmp_path, capsys, mnist, edits)
    assert not failures, "\n".join(map(str, failures))


def test_every_arch_entry_added(tmp_path, capsys, mnist):
    """Each of ``ARCH_INSERTS`` inserted before each arch entry and after the
    last."""
    n = len(_small_checkpoint().arch)
    edits = [(("insert", i, entry["kind"]), lambda arch, i=i, entry=entry: arch.insert(i, entry))
             for i in range(n + 1) for entry in ARCH_INSERTS]
    failures = _arch_edit_failures(tmp_path, capsys, mnist, edits)
    assert not failures, "\n".join(map(str, failures))


def test_prune_of_a_network_with_no_weight_layer(tmp_path, capsys, mnist):
    """``prune`` of the small checkpoint without rates cut to its flatten,
    which has no fc or conv2d layer, under a config with no winner rate or
    weight target to reject: one error line, where the weight density of
    the first epoch's record divided by zero."""
    doc = {**mnist, "prune": {"winner_rates": {}, "weight_targets": {}, "finetune_epochs": 1}}
    cfg = _write_config(tmp_path / "exp.yaml", doc)
    path, failures = tmp_path / "m.ckpt", []
    write_edited_checkpoint(path, dataclasses.replace(_small_checkpoint(), winner_cfg=None),
                            edit_meta(lambda d: d["arch"].__delitem__(slice(1, None))))
    _run(["prune", cfg, "--checkpoint", str(path)], capsys, "flatten alone", failures)
    assert not failures, "\n".join(map(str, failures))


# ">f4" reads the little-endian bytes swapped, which may give NaN weights
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_every_param_dtype(tmp_path, capsys, mnist):
    """Each stored param's dtype string set to each of ``DTYPES``: a float
    type loads, and any other is one error line."""
    cfg = _write_config(tmp_path / "exp.yaml", mnist)
    ckpt, path, failures = _small_checkpoint(), tmp_path / "m.ckpt", []
    names = list(ckpt.params)
    for k, name in enumerate(names):
        # parts: meta_len, meta, then per param name_len, name, dtype_len,
        # dtype, ndim, dims, values, has_mask and a mask when it has one
        at = 2 + sum(8 + (n in ckpt.masks) for n in names[:k])
        for dtype in DTYPES:
            write_edited_checkpoint(path, ckpt, lambda parts: [
                *parts[:at + 2], struct.pack("<B", len(dtype)), dtype.encode(), *parts[at + 4:]])
            _run(["eval", cfg, "--checkpoint", str(path)], capsys, (name, dtype), failures)
    assert not failures, "\n".join(map(str, failures))


def test_every_config_value(tmp_path, capsys, monkeypatch, mnist):
    """Each ``config.KEYS`` key set to each value and to its own boundary
    values, or removed, run by ``train-dense``; the epoch counts take no huge
    value."""
    monkeypatch.chdir(tmp_path)  # where a relative outputs or data dir lands
    failures = []
    for key in KEYS:
        section, _, name = key.rpartition(".")
        for value in [*CONFIG_VALUES, *BOUNDARY_VALUES[key]]:
            if key in EPOCH_KEYS and any(value is v for v in HUGE):
                continue
            doc = copy.deepcopy(mnist)
            _set(doc.setdefault(section, {}) if section else doc, (name,), value)
            cfg = _write_config(tmp_path / "exp.yaml", doc)
            _run(["train-dense", cfg], capsys, (key, value), failures)
    assert not failures, "\n".join(map(str, failures))


def test_every_rejected_config_value_names_its_key(tmp_path, mnist):
    """Each value of ``test_every_config_value`` that ``load_experiment``
    rejects gives a ConfigError naming its dotted key; momentum's range,
    read only by sgd, is also tried under ``train.optimizer: sgd``."""
    failures = []
    for key, optimizer in [(key, None) for key in KEYS] + [("train.momentum", "sgd")]:
        section, _, name = key.rpartition(".")
        for value in [*CONFIG_VALUES, *BOUNDARY_VALUES[key]]:
            doc = copy.deepcopy(mnist)
            if optimizer:
                doc["train"]["optimizer"] = optimizer
            _set(doc.setdefault(section, {}) if section else doc, (name,), value)
            try:
                load_experiment(_write_config(tmp_path / "exp.yaml", doc))
            except ConfigError as e:
                if key not in str(e):
                    failures.append((key, value, str(e)))
    assert not failures, "\n".join(map(str, failures))


def _run_file_edits(path, edits, argv, capsys):
    """The failures of ``argv`` run once with ``path`` holding each of
    ``edits`` (bytes)."""
    failures = []
    for k, data in enumerate(edits):
        path.write_bytes(data)
        _run(argv, capsys, (path.name, k), failures)
    return failures


def test_every_idx_header_field(tmp_path, capsys, mnist):
    """Each header word of the test image and label files (magic, count,
    rows, cols) set to each of ``IDX_WORDS``, and each file cut short or
    grown by a byte, and both files of 0 digits, run by ``eval`` and by
    ``report-macs`` on a small conv net with winner rates."""
    write_mnist(tmp_path, "test", 4, np.random.default_rng(0))
    cfg = _write_config(tmp_path / "exp.yaml", {**mnist, "data": {"dir": str(tmp_path)}})
    ckpt, conv = tmp_path / "m.ckpt", tmp_path / "c.ckpt"
    save_checkpoint(_small_checkpoint(), ckpt)
    net = Network([L.conv2d(1, 2, 3, 1, 1), L.relu(), L.flatten(), L.fc(1568, 10)], (1, 28, 28))
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={1: 0.5}))
    save_checkpoint(checkpoint_from_network(net), conv)
    argvs = (["eval", cfg, "--checkpoint", str(ckpt)],
             ["report-macs", cfg, "--checkpoint", str(conv)])
    failures = []
    for path, words in zip(mnist_paths(tmp_path)["test"], (4, 2)):
        intact = Path(path).read_bytes()
        edits = [intact[:at] + struct.pack(">I", word) + intact[at + 4:]
                 for at in range(0, 4 * words, 4) for word in IDX_WORDS]
        edits += [intact[:n] for n in (0, 3, 4, 4 * words - 1, 4 * words, len(intact) - 1)]
        edits += [intact + b"\0", intact]
        for argv in argvs:
            failures += _run_file_edits(Path(path), edits, argv, capsys)
    write_mnist(tmp_path, "test", 0, np.random.default_rng(0))
    for argv in argvs:
        _run(argv, capsys, ("0 digits", argv[0]), failures)
    assert not failures, "\n".join(map(str, failures))


def test_every_cifar_record_edit(tmp_path, capsys):
    """The CIFAR-10 test batch, of no header but whole 3073-byte records,
    with a label byte out of range, cut short, or grown by a byte or by a
    record, run by ``eval`` on a convnet5."""
    write_cifar10(tmp_path, 1, 2, np.random.default_rng(0))
    cfg = _write_config(tmp_path / "exp.yaml", {
        "model": "convnet5", "data": {"dir": str(tmp_path)}, "outputs": str(tmp_path / "out")})
    ckpt = tmp_path / "c.ckpt"
    save_checkpoint(checkpoint_from_network(get_preset("convnet5").build()), ckpt)
    path = Path(cifar10_paths(tmp_path)["test"][0])
    intact = path.read_bytes()
    edits = [bytes([label]) + intact[1:] for label in (9, 10, 255)]
    edits += [intact[:n] for n in (0, 1, CIFAR_RECORD_BYTES - 1, CIFAR_RECORD_BYTES + 1,
                                   len(intact) - 1)]
    edits += [intact + b"\0", intact + intact[:CIFAR_RECORD_BYTES]]
    failures = _run_file_edits(path, edits, ["eval", cfg, "--checkpoint", str(ckpt), "--mode",
                                             "dense"], capsys)
    assert not failures, "\n".join(map(str, failures))
