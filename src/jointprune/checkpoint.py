"""Versioned binary checkpoints for networks, masks and winner-rate configs.

Layout (all integers little-endian):

    magic   6 bytes  b"JPCKPT"
    version u8       currently 1
    pad     u8       zero
    crc32   u32      CRC over everything that follows
    length  u64      payload byte count
    payload:
        meta_len u32, meta JSON (utf-8, sorted keys)
        for each param (order fixed by the architecture):
            name_len u16, name utf-8
            dtype_len u8, numpy dtype string (little-endian form)
            ndim u8, dims u32 * ndim
            raw value bytes
            has_mask u8; if 1: bit-packed mask, ceil(size/8) bytes

Round trips are bit-exact; a flipped byte fails the CRC; an unknown
version is rejected, never coerced.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import LayerSpec
from .network import Network
from .sparsity import WinnerRateConfig

MAGIC = b"JPCKPT"
VERSION = 1


@dataclass
class Checkpoint:
    arch: list  # list of {"kind":..., "geometry": {...}} dicts
    input_shape: tuple
    dtype: str
    params: dict  # name -> ndarray
    masks: dict  # name -> binary ndarray (weights with a static mask only)
    winner_cfg: dict | None = None
    meta: dict = field(default_factory=dict)


def _param_names(net):
    return [(f"layer{i}.{p.name}", p) for i, layer in enumerate(net.layers) for p in layer.params]


def checkpoint_from_network(net, meta=None):
    """Snapshot a network with its attached winner-rate config; a non-finite
    param raises ``CheckpointError``, so no diverged network can be saved."""
    cfg = net.mask_cfg
    params, masks = {}, {}
    for name, p in _param_names(net):
        if not np.isfinite(p.value).all():
            raise CheckpointError(f"param {name} holds non-finite values; refusing to save it")
        params[name] = p.value
        if p.mask is not None:
            masks[name] = p.mask
    winner_cfg = None
    if cfg is not None:
        # JSON object keys are strings: winner_cfg_from_dict turns them back
        rates = {str(k): float(v) for k, v in cfg.per_layer_rate.items()}
        winner_cfg = {**asdict(cfg), "per_layer_rate": rates}
    return Checkpoint(
        arch=[{"kind": s.kind, "geometry": s.geometry} for s in net.specs],
        input_shape=tuple(net.input_shape),
        dtype=net.dtype.str,
        params=params,
        masks=masks,
        winner_cfg=winner_cfg,
        meta=dict(meta or {}),
    )


def network_from_checkpoint(ckpt):
    """A network holding its own writeable copy of each checkpoint param."""
    for d in ckpt.arch:
        if not isinstance(d, dict) or not {"kind", "geometry"} <= d.keys():
            raise CheckpointError(f"checkpoint arch entry {d!r} lacks a kind or a geometry")
    specs = [LayerSpec(d["kind"], d["geometry"]) for d in ckpt.arch]
    dtype = None
    with contextlib.suppress(TypeError):
        dtype = np.dtype(ckpt.dtype) if isinstance(ckpt.dtype, str) else None
    if dtype is None or dtype.kind != "f":
        raise CheckpointError(f"checkpoint dtype {ckpt.dtype!r} is not a float type")

    def stored(i, pname, shape):
        if (name := f"layer{i}.{pname}") not in ckpt.params:
            raise CheckpointError(f"checkpoint missing param {name}")
        value = ckpt.params[name]
        if value.shape != shape:
            raise CheckpointError(f"param {name}: checkpoint shape {value.shape} != model {shape}")
        return value

    net = Network(specs, ckpt.input_shape, dtype=dtype, stored=stored)
    for name, p in _param_names(net):
        if name in ckpt.masks:
            p.set_mask(ckpt.masks[name])
    if ckpt.winner_cfg is not None:
        net.set_mask_cfg(winner_cfg_from_dict(ckpt.winner_cfg))
    return net


def winner_cfg_from_dict(d):
    """The :class:`WinnerRateConfig` that ``checkpoint_from_network`` stored
    as ``d``, each field cast and checked by the config's own rules; an
    absent field takes the dataclass default.  A non-mapping, a missing
    ``per_layer_rate``, an unknown field or a value a rule rejects raises
    ``CheckpointError``."""
    if not isinstance(d, dict) or not isinstance(d.get("per_layer_rate"), dict):
        raise CheckpointError(f"checkpoint winner_cfg {d!r} lacks a per_layer_rate mapping")
    try:
        return WinnerRateConfig(**d)
    except (ConfigError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint winner_cfg {d!r}: {e}") from None


def _payload_parts(ckpt):
    """The payload as a list of byte buffers; param values are views, not
    copies."""
    meta_doc = {
        "arch": ckpt.arch,
        "input_shape": list(ckpt.input_shape),
        "dtype": ckpt.dtype,
        "winner_cfg": ckpt.winner_cfg,
        "meta": ckpt.meta,
        "param_order": list(ckpt.params.keys()),
    }
    meta = json.dumps(meta_doc, sort_keys=True, separators=(",", ":")).encode()
    out = [struct.pack("<I", len(meta)), meta]
    for name in ckpt.params:
        value = np.ascontiguousarray(ckpt.params[name])
        value = value.astype(value.dtype.newbyteorder("<"), copy=False)
        nb = name.encode()
        dt = value.dtype.str.encode()
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", len(dt)))
        out.append(dt)
        out.append(struct.pack("<B", value.ndim))
        out.append(struct.pack(f"<{value.ndim}I", *value.shape))
        out.append(value.reshape(-1).view(np.uint8))
        mask = ckpt.masks.get(name)
        if mask is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            out.append(np.packbits(mask.astype(bool).reshape(-1)))
    return out


def save_checkpoint(ckpt, path):
    """Write ``ckpt`` to ``path`` through :func:`_replacing`, so a save that
    fails or is interrupted leaves the old file or the new one, never a
    half-written one; an ``OSError`` becomes ``CheckpointError``.  Should a
    power loss tear the file (see :func:`_replacing`), the length and CRC
    checks make ``load_checkpoint`` reject it."""
    parts = _payload_parts(ckpt)
    crc = length = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        length += len(part)
    try:
        with _replacing(path, "wb") as f:
            f.write(MAGIC + struct.pack("<BBIQ", VERSION, 0, crc, length))
            for part in parts:
                f.write(part)
    except OSError as e:
        raise CheckpointError(f"{path}: cannot write checkpoint: {e.strerror or e}") from e


@contextlib.contextmanager
def _replacing(path, mode, **kw):
    """A temp file next to ``path``, opened with ``mode``, which is closed
    and renamed over ``path`` when the ``with`` block ends; when anything
    fails first, it is removed instead and ``path`` keeps its old contents.

    There is no fsync: its latency follows the disk's other traffic (tails
    of 15-28 ms against a 3 ms checkpoint round trip on leaky6).  After a
    power loss, ext4's rename-over-existing ordering still shows the old
    file or the new one; another filesystem may show a torn file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kw) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read and verify a checkpoint; param values are read-only views of its
    bytes.  Every fault in decoding a payload whose CRC holds is a ``CheckpointError``."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 20 or blob[:6] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version, _ = struct.unpack_from("<BB", blob, 6)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    crc, length = struct.unpack_from("<IQ", blob, 8)
    payload = memoryview(blob)[20:]
    if len(payload) != length:
        raise CheckpointError(f"{path}: truncated payload ({len(payload)} of {length} bytes)")
    if zlib.crc32(payload) != crc:
        raise CheckpointError(f"{path}: CRC mismatch, file corrupt")

    off = 0

    def take(n):
        nonlocal off
        if off + n > len(payload):
            raise ValueError("payload underrun")
        off += n
        return payload[off - n : off]

    try:
        (meta_len,) = struct.unpack("<I", take(4))
        meta_doc = json.loads(bytes(take(meta_len)))
        params, masks = {}, {}
        for name in meta_doc["param_order"]:
            (name_len,) = struct.unpack("<H", take(2))
            stored = str(take(name_len), "utf-8")
            if stored != name:
                raise ValueError(f"param order mismatch ({stored!r} != {name!r})")
            (dt_len,) = struct.unpack("<B", take(1))
            dtype = np.dtype(str(take(dt_len), "utf-8"))
            if dtype.kind != "f":
                raise ValueError(f"param {name} dtype {dtype.str!r} is not a float type")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            size = math.prod(shape)
            params[name] = np.frombuffer(take(size * dtype.itemsize), dtype=dtype).reshape(shape)
            (has_mask,) = struct.unpack("<B", take(1))
            if has_mask:
                packed = np.frombuffer(take((size + 7) // 8), dtype=np.uint8)
                masks[name] = np.unpackbits(packed, count=size).reshape(shape).astype(dtype)
        ckpt = Checkpoint(
            arch=list(meta_doc["arch"]), input_shape=tuple(meta_doc["input_shape"]),
            dtype=meta_doc["dtype"], params=params, masks=masks,
            winner_cfg=meta_doc["winner_cfg"], meta=meta_doc["meta"],
        )
    except (KeyError, TypeError, ValueError, struct.error) as e:
        raise CheckpointError(f"{path}: malformed payload: {e}") from None
    if off != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - off} trailing payload bytes")
    return ckpt
