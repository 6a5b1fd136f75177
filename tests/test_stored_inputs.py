"""Stored-input fuzz: a checkpoint, a config and the data files, each with
one field set to each value of a fixed list (or removed), run in process
through ``cli.main``.  Every run returns 0, or 1 with exactly one stderr
line, and never raises.  A case that fails is mended in the library, never
dropped from a list.  Each test reports every failing case at once."""

import copy
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
from jointprune.cli import main
from jointprune.config import KEYS
from jointprune.datasets import CIFAR_RECORD_BYTES, cifar10_paths, mnist_paths
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
    """Each ``config.KEYS`` key set to each value, or removed, run by
    ``train-dense``; the epoch counts take no huge value."""
    monkeypatch.chdir(tmp_path)  # where a relative outputs or data dir lands
    failures = []
    for key in KEYS:
        section, _, name = key.rpartition(".")
        for value in CONFIG_VALUES:
            if key in EPOCH_KEYS and any(value is v for v in HUGE):
                continue
            doc = copy.deepcopy(mnist)
            _set(doc.setdefault(section, {}) if section else doc, (name,), value)
            cfg = _write_config(tmp_path / "exp.yaml", doc)
            _run(["train-dense", cfg], capsys, (key, value), failures)
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
    grown by a byte, run by ``eval``."""
    write_mnist(tmp_path, "test", 4, np.random.default_rng(0))
    cfg = _write_config(tmp_path / "exp.yaml", {**mnist, "data": {"dir": str(tmp_path)}})
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(_small_checkpoint(), ckpt)
    failures = []
    for path, words in zip(mnist_paths(tmp_path)["test"], (4, 2)):
        intact = Path(path).read_bytes()
        edits = [intact[:at] + struct.pack(">I", word) + intact[at + 4:]
                 for at in range(0, 4 * words, 4) for word in IDX_WORDS]
        edits += [intact[:n] for n in (0, 3, 4, 4 * words - 1, 4 * words, len(intact) - 1)]
        edits += [intact + b"\0", intact]
        failures += _run_file_edits(Path(path), edits, ["eval", cfg, "--checkpoint", str(ckpt)],
                                    capsys)
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
