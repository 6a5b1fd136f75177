"""Dataset ingestion: MNIST IDX files and CIFAR-10 binary batches.

Loaders are strict: bad magic numbers, truncated payloads or image/label
count mismatches raise :class:`DataFormatError` instead of yielding a
partial dataset.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixels

# Widely used per-channel statistics of the CIFAR-10 training set (on the
# [0,1] scale), applied identically to every split for determinism.
CIFAR10_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR10_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)


@dataclass
class DatasetSplit:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64
    role: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataFormatError(
                f"image count {len(self.images)} != label count {len(self.labels)}"
            )

    def __len__(self):
        return len(self.images)

    def subset(self, indices, role=None):
        return DatasetSplit(self.images[indices], self.labels[indices], role or self.role)


def _read_idx(path, magic):
    """The uint8 array of the IDX file at ``path``, whose magic must be
    ``magic``; the magic's low byte is the array's rank."""
    ndim = magic & 0xFF
    with open(path, "rb") as f:
        header = f.read(4 * (1 + ndim))
        if len(header) < 4 * (1 + ndim):
            raise DataFormatError(f"{path}: truncated IDX header")
        found, *dims = struct.unpack(f">{1 + ndim}I", header)
        if found != magic:
            raise DataFormatError(f"{path}: bad IDX magic {found}, expected {magic}")
        payload = f.read()
    expected = math.prod(dims)
    if len(payload) != expected:
        what = "label" if ndim == 1 else "pixel"
        raise DataFormatError(f"{path}: expected {expected} {what} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_mnist(image_path, label_path, role="train"):
    """Load one MNIST split; pixels scaled to [0,1], shape (N, 1, 28, 28)."""
    images = _read_idx(image_path, MNIST_IMAGE_MAGIC)[:, None].astype(np.float32)
    images /= 255.0  # in place: the same float32 step, on one array
    labels = _read_idx(label_path, MNIST_LABEL_MAGIC).astype(np.int64)
    return DatasetSplit(images, labels, role)


def load_cifar10(batch_paths, role="train"):
    """Load CIFAR-10 binary batches, per-channel standardized."""
    chunks, labels = [], []
    for path in batch_paths:
        size = os.path.getsize(path)
        if size == 0 or size % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: size {size} is not a multiple of record size {CIFAR_RECORD_BYTES}"
            )
        raw = np.fromfile(path, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels.append(raw[:, 0].astype(np.int64))
        chunks.append(raw[:, 1:].reshape(-1, 3, 32, 32))
    labels = np.concatenate(labels)
    if labels.max() > 9:
        raise DataFormatError("CIFAR-10 label byte out of range 0..9")
    # (x / 255 - mean) / std in place: the same float32 steps, on one array
    images = np.concatenate(chunks).astype(np.float32)
    images /= 255.0
    images -= CIFAR10_MEAN[:, None, None]
    images /= CIFAR10_STD[:, None, None]
    return DatasetSplit(images, labels, role)


def train_val_split(split, val_size, seed, train_size=None):
    """Seeded index permutation: the first ``val_size`` images validate, the
    next ``train_size`` (None: all the rest) train; each is copied once."""
    if not 0 < val_size < len(split):
        raise DataFormatError(f"val size {val_size} invalid for split of {len(split)}")
    val, rest = np.split(np.random.default_rng(seed).permutation(len(split)), [val_size])
    return split.subset(rest[:train_size], "train"), split.subset(val, "val")


def center_crop(split, size):
    """Center-crop all images to size x size (used by the CIFAR ConvNet)."""
    _, _, h, w = split.images.shape
    if size > h or size > w:
        raise DataFormatError(f"crop {size} larger than image {h}x{w}")
    top, left = (h - size) // 2, (w - size) // 2
    return DatasetSplit(
        split.images[:, :, top : top + size, left : left + size], split.labels, split.role
    )


def mnist_paths(data_dir):
    return {
        "train": (
            os.path.join(data_dir, "train-images-idx3-ubyte"),
            os.path.join(data_dir, "train-labels-idx1-ubyte"),
        ),
        "test": (
            os.path.join(data_dir, "t10k-images-idx3-ubyte"),
            os.path.join(data_dir, "t10k-labels-idx1-ubyte"),
        ),
    }


def cifar10_paths(data_dir):
    return {
        "train": [os.path.join(data_dir, f"data_batch_{i}.bin") for i in range(1, 6)],
        "test": [os.path.join(data_dir, "test_batch.bin")],
    }
