"""Writers of the files the loaders read, MNIST IDX files, CIFAR-10 binary
batches and checkpoints with a hand-edited payload, for tests that run on
synthetic data, and a reader of the CSV reports the commands write."""

import csv
import json
import struct
import zlib

import numpy as np

from jointprune import checkpoint as ckpt_io
from jointprune.datasets import CIFAR_RECORD_BYTES, cifar10_paths, mnist_paths


def write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, n, h, w))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 2049, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_cifar_batch(path, images, labels):
    recs = np.empty((len(labels), CIFAR_RECORD_BYTES), dtype=np.uint8)
    recs[:, 0] = labels
    recs[:, 1:] = images.reshape(len(labels), -1)
    recs.tofile(path)


def write_mnist(data_dir, split, n, rng):
    """IDX image and label files of ``n`` random 28x28 digits, where
    ``datasets.mnist_paths`` puts ``split`` (train or test)."""
    images, labels = mnist_paths(data_dir)[split]
    write_idx_images(images, rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
    write_idx_labels(labels, rng.integers(0, 10, size=n, dtype=np.uint8))


def write_cifar10(data_dir, per_batch, n_test, rng):
    """Random 32x32 colour images, ``per_batch`` in each of the five training
    batches and ``n_test`` in the test batch, where ``datasets.cifar10_paths``
    puts them."""
    paths = cifar10_paths(data_dir)
    for path, n in zip(paths["train"] + paths["test"], [per_batch] * 5 + [n_test]):
        write_cifar_batch(path, rng.integers(0, 256, size=(n, 3, 32, 32)),
                          rng.integers(0, 10, size=n))


def write_edited_checkpoint(path, ckpt, edit):
    """``ckpt`` saved with its payload parts (as ``checkpoint._payload_parts``
    lists them) passed through ``edit`` first, under a header whose length
    and CRC match the edited payload, so only its decoding can fail."""
    payload = b"".join(bytes(part) for part in edit(ckpt_io._payload_parts(ckpt)))
    header = struct.pack("<BBIQ", ckpt_io.VERSION, 0, zlib.crc32(payload), len(payload))
    path.write_bytes(ckpt_io.MAGIC + header + payload)


def edit_meta(change):
    """A payload edit for :func:`write_edited_checkpoint` that stores the
    meta JSON as ``change`` leaves its decoded dict."""
    def edit(parts):
        doc = json.loads(bytes(parts[1]))
        change(doc)
        meta = json.dumps(doc).encode()
        return [struct.pack("<I", len(meta)), meta, *parts[2:]]
    return edit


def read_report(path):
    """An emitted CSV report as (header, rows of strings)."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows
