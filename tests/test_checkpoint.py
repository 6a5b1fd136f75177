"""Checkpoint serialization: bit-exact round trips, corruption detection."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import jointprune
from jointprune import checkpoint as ckpt_io
from jointprune import layers as L
from jointprune.checkpoint import (
    MAGIC,
    checkpoint_from_network,
    load_checkpoint,
    network_from_checkpoint,
    save_checkpoint,
    winner_cfg_from_dict,
)
from jointprune.errors import CheckpointError
from jointprune.network import Network
from jointprune.sparsity import WinnerRateConfig

from datafiles import edit_meta, write_edited_checkpoint


def _small_net(seed=11):
    return Network(
        [L.conv2d(1, 3, 3, 1, 1), L.relu(), L.maxpool(2, 2), L.flatten(), L.fc(27, 5)],
        (1, 6, 6),
        seed=seed,
    )


def test_round_trip_bit_exact(tmp_path, rng):
    net = _small_net()
    mask = (rng.random(net.layers[4].w.value.shape) > 0.5).astype(np.float32)
    net.layers[4].w.set_mask(mask)
    cfg = WinnerRateConfig(per_layer_rate={2: 0.3}, downsample_rate=0.1,
                           selection_mode="predicted_threshold", offset_seed=5)
    net.set_mask_cfg(cfg)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_network(net, meta={"epoch": 3, "seed": 11}), path)
    ckpt = load_checkpoint(path)
    assert ckpt.meta == {"epoch": 3, "seed": 11}

    restored = network_from_checkpoint(ckpt)
    assert restored.input_shape == net.input_shape
    for (_, p), (_, q) in zip(net.weight_params(), restored.weight_params()):
        assert np.array_equal(p.value, q.value)
    assert np.array_equal(restored.layers[4].w.mask, mask)
    assert restored.mask_cfg.per_layer_rate == {2: 0.3}
    assert restored.mask_cfg.selection_mode == "predicted_threshold"
    assert restored.mask_cfg.offset_seed == 5

    # identical forward pass
    x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
    assert np.array_equal(net.forward(x).logits, restored.forward(x).logits)

    # save again: byte-identical file
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(checkpoint_from_network(restored, meta={"epoch": 3, "seed": 11}), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_copies_each_param_once(tmp_path, rng):
    """A loaded checkpoint's params are read-only views of the file bytes;
    the rebuilt network owns writeable copies, bit-equal to the saved ones."""
    net = _small_net()
    net.layers[4].w.set_mask((rng.random(net.layers[4].w.value.shape) > 0.5).astype(np.float32))
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    ckpt = load_checkpoint(path)
    assert ckpt.params and not any(v.flags.writeable for v in ckpt.params.values())
    restored = network_from_checkpoint(ckpt)
    for p, (name, q) in zip(net.params(), ckpt_io._param_names(restored)):
        assert q.value.flags.writeable
        assert not np.shares_memory(q.value, ckpt.params[name])
        assert q.value.dtype == p.value.dtype and q.value.tobytes() == p.value.tobytes()
        # the zero grad its Param made beside the one copy, of its shape and dtype
        assert q.grad.shape == q.value.shape and q.grad.dtype == q.value.dtype
        assert not q.grad.any()


def test_pruned_density_preserved(tmp_path, rng):
    net = _small_net()
    w = net.layers[0].w
    w.set_mask((rng.random(w.value.shape) > 0.7).astype(np.float32))
    before = net.weight_density()
    path = tmp_path / "p.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    restored = network_from_checkpoint(load_checkpoint(path))
    assert restored.weight_density() == before
    assert np.all(restored.layers[0].w.value[w.mask == 0] == 0.0)


def test_tampered_byte_fails_crc(tmp_path):
    net = _small_net()
    path = tmp_path / "t.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    net = _small_net()
    path = tmp_path / "v.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    blob = bytearray(path.read_bytes())
    blob[6] = 99  # version byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"hello world, definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)
    short = tmp_path / "short"
    short.write_bytes(MAGIC)
    with pytest.raises(CheckpointError):
        load_checkpoint(short)


def test_truncated_payload(tmp_path):
    net = _small_net()
    path = tmp_path / "tr.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, needle", [
    (lambda parts: [struct.pack("<I", 1 << 20), *parts[1:]], "malformed payload: payload underrun"),
    (lambda parts: [*parts[:3], b"layer0.x", *parts[4:]],
     "malformed payload: param order mismatch ('layer0.x' != 'layer0.w')"),
    (lambda parts: [*parts[:3], b"layer0\xff", *parts[4:]], "malformed payload: 'utf-8' codec"),
    (lambda parts: [*parts, b"\0\0"], "2 trailing payload bytes"),
    (edit_meta(lambda d: d.pop("meta")), "malformed payload: 'meta'"),
    (edit_meta(lambda d: d.update(input_shape=6)), "malformed payload: 'int' object"),
], ids=["underrun", "order", "name-not-utf8", "trailing", "no-meta", "input-shape-int"])
def test_decode_fault_is_checkpoint_error(tmp_path, edit, needle):
    """A payload whose length and CRC hold but which does not decode is
    rejected with one ``CheckpointError`` naming the file."""
    path = tmp_path / "d.ckpt"
    write_edited_checkpoint(path, checkpoint_from_network(_small_net()), edit)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {needle}")):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["|V4", "<U1", "<i4", "|b1"])
def test_non_float_param_dtype_is_checkpoint_error(tmp_path, dtype):
    """A stored param dtype that numpy decodes but that is no float used to
    pass the load: ``|V4`` then raised a bare ValueError in the rebuild's
    cast, and an int type loaded truncated weights."""
    path = tmp_path / "t.ckpt"
    # the first param's dtype_len and dtype parts follow meta_len, meta,
    # name_len and name
    write_edited_checkpoint(path, checkpoint_from_network(_small_net()), lambda parts: [
        *parts[:4], struct.pack("<B", len(dtype)), dtype.encode(), *parts[6:]])
    needle = f"{path}: malformed payload: param layer0.w dtype '{dtype}' is not a float type"
    with pytest.raises(CheckpointError, match=re.escape(needle)):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    net = _small_net()
    path = tmp_path / "s.ckpt"
    save_checkpoint(checkpoint_from_network(net), path)
    ckpt = load_checkpoint(path)
    ckpt.params["layer4.w"] = np.zeros((5, 5), dtype=np.float32)
    with pytest.raises(CheckpointError, match="shape"):
        network_from_checkpoint(ckpt)


def test_arch_entry_without_kind_or_geometry_rejected():
    ckpt = checkpoint_from_network(_small_net())
    for entry in ({"geometry": {}}, {"kind": "relu"}, "relu"):
        ckpt.arch[0] = entry
        with pytest.raises(CheckpointError, match="lacks a kind or a geometry"):
            network_from_checkpoint(ckpt)


def test_winner_cfg_dict_round_trip():
    cfg = winner_cfg_from_dict({"per_layer_rate": {"2": 0.25}})
    assert cfg.per_layer_rate == {2: 0.25}
    assert cfg.downsample_rate == 1.0
    assert cfg.selection_mode == "exact_topk"


@pytest.mark.parametrize("winner_cfg", [
    {"downsample_rate": 0.5},                  # no per_layer_rate
    {"per_layer_rate": {"x": 0.5}},            # a layer key that is no integer
    {"per_layer_rate": {"2": 0.5}, "rate": 1},  # an unknown field
    [["2", 0.5]],                              # not a mapping
    {"per_layer_rate": [0.5]},
    {"per_layer_rate": {"2": 0.5}, "offset_seed": 2.5},  # a fractional int field
    {"per_layer_rate": {"2": True}},                      # a bool rate
])
def test_malformed_winner_cfg_is_checkpoint_error(tmp_path, winner_cfg):
    ckpt = checkpoint_from_network(_small_net())
    ckpt.winner_cfg = winner_cfg
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)  # the CRC holds: only the config is bad
    with pytest.raises(CheckpointError, match="winner_cfg"):
        network_from_checkpoint(loaded)


def test_checkpoint_reader_leaves_yaml_unimported():
    """Loading a checkpoint shares the YAML reader's cast rule but not its
    PyYAML import, a large share of a serving process's start-up."""
    src = os.path.dirname(os.path.dirname(jointprune.__file__))
    code = "import sys, jointprune.checkpoint; sys.exit('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_param_is_never_saved(tmp_path, bad):
    net = _small_net()
    net.layers[0].b.value[1] = bad
    with pytest.raises(CheckpointError, match="non-finite"):
        checkpoint_from_network(net)


class _HalfWriter:
    """A file whose write stores half of the bytes, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class _FailingCloser(_HalfWriter):
    """A file whose writes succeed but whose close fails, as when buffered
    bytes reach a full disk."""

    def __exit__(self, *exc):
        self._f.close()
        raise OSError(28, "No space left on device")

    def write(self, data):
        return self._f.write(data)


def _fail_replace(src, dst):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("fault", ["write", "close", "replace"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, fault):
    """A save that fails part-way raises CheckpointError, leaves the file it
    would replace byte-identical and leaves no temp file behind."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_network(_small_net(seed=1)), path)
    before = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(ckpt_io, "open", lambda p, mode: _HalfWriter(open(p, mode)),
                            raising=False)
    elif fault == "close":
        monkeypatch.setattr(ckpt_io, "open", lambda p, mode: _FailingCloser(open(p, mode)),
                            raising=False)
    else:
        monkeypatch.setattr(ckpt_io.os, "replace", _fail_replace)
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        save_checkpoint(checkpoint_from_network(_small_net(seed=2)), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_save_into_missing_directory_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        save_checkpoint(checkpoint_from_network(_small_net()), tmp_path / "no" / "m.ckpt")
