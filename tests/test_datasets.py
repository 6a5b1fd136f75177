"""Dataset loaders on synthetic files plus sanity checks on the real data."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from jointprune.datasets import (
    CIFAR10_MEAN,
    CIFAR10_STD,
    CIFAR_RECORD_BYTES,
    center_crop,
    cifar10_paths,
    load_cifar10,
    load_mnist,
    mnist_paths,
    train_val_split,
)
from jointprune.errors import DataFormatError

from datafiles import write_cifar_batch, write_idx_images, write_idx_labels


def test_mnist_synthetic_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7)
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    split = load_mnist(ip, lp, role="test")
    assert split.images.shape == (7, 1, 28, 28)
    assert split.images.dtype == np.float32
    assert split.images.max() <= 1.0 and split.images.min() >= 0.0
    assert np.array_equal(split.images[0, 0], images[0].astype(np.float32) / 255.0)
    assert np.array_equal(split.labels, labels)
    assert split.role == "test"


def test_mnist_scales_in_one_float32_copy(tmp_path, rng):
    """load_mnist gives the bytes of ``images.astype(np.float32) / 255.0``,
    and its peak holds one float32 copy of the pixels beside the uint8
    payload, where that expression holds two."""
    n = 2000
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_images(ip, images)
    write_idx_labels(lp, rng.integers(0, 10, size=n))
    tracemalloc.start()
    try:
        split = load_mnist(ip, lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split.images.tobytes() == (images.astype(np.float32) / 255.0).tobytes()
    assert peak < split.images.nbytes + split.labels.nbytes + images.nbytes, peak


def test_mnist_bad_files(tmp_path, rng):
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    images = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    write_idx_images(ip, images)
    write_idx_labels(lp, [1, 2, 3])

    bad_magic = tmp_path / "bad_magic"
    bad_magic.write_bytes(struct.pack(">IIII", 1234, 3, 28, 28))
    with pytest.raises(DataFormatError, match="magic"):
        load_mnist(bad_magic, lp)

    truncated = tmp_path / "trunc"
    truncated.write_bytes(ip.read_bytes()[:-10])
    with pytest.raises(DataFormatError, match="pixel bytes"):
        load_mnist(truncated, lp)

    short_labels = tmp_path / "short_lbls"
    write_idx_labels(short_labels, [1, 2])
    with pytest.raises(DataFormatError, match="count"):
        load_mnist(ip, short_labels)

    tiny = tmp_path / "tiny"
    tiny.write_bytes(b"\x00\x01")
    with pytest.raises(DataFormatError, match="truncated"):
        load_mnist(tiny, lp)


def test_cifar_synthetic_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
    labels = np.array([0, 3, 9, 1, 5], dtype=np.uint8)
    path = tmp_path / "batch.bin"
    write_cifar_batch(path, images, labels)
    split = load_cifar10([path])
    assert split.images.shape == (5, 3, 32, 32)
    assert np.array_equal(split.labels, labels)
    # the [0,1] pixels, standardized with the fixed per-channel statistics
    plain = images.astype(np.float32) / 255.0
    assert np.array_equal(
        split.images, (plain - CIFAR10_MEAN[:, None, None]) / CIFAR10_STD[:, None, None])
    expect = (images / 255.0 - CIFAR10_MEAN[:, None, None]) / CIFAR10_STD[:, None, None]
    assert np.allclose(split.images, expect, atol=1e-6)


def test_cifar_bad_files(tmp_path, rng):
    bad_size = tmp_path / "bad.bin"
    bad_size.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES + 1))
    with pytest.raises(DataFormatError, match="record size"):
        load_cifar10([bad_size])
    bad_label = tmp_path / "label.bin"
    rec = np.zeros(CIFAR_RECORD_BYTES, dtype=np.uint8)
    rec[0] = 11
    rec.tofile(bad_label)
    with pytest.raises(DataFormatError, match="range"):
        load_cifar10([bad_label])


def test_train_val_split_deterministic(tmp_path, rng):
    images = rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=20)
    ip, lp = tmp_path / "i", tmp_path / "l"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    split = load_mnist(ip, lp)
    tr1, va1 = train_val_split(split, 5, seed=42)
    tr2, va2 = train_val_split(split, 5, seed=42)
    assert np.array_equal(tr1.labels, tr2.labels)
    assert np.array_equal(va1.images, va2.images)
    assert len(tr1) == 15 and len(va1) == 5
    assert va1.role == "val"
    # different seed shuffles differently (overwhelmingly likely)
    _, va3 = train_val_split(split, 5, seed=43)
    assert not np.array_equal(va1.images, va3.images)
    with pytest.raises(DataFormatError):
        train_val_split(split, 0, seed=1)
    with pytest.raises(DataFormatError):
        train_val_split(split, 20, seed=1)


def test_center_crop(tmp_path, rng):
    images = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
    path = tmp_path / "b.bin"
    write_cifar_batch(path, images, np.zeros(2, dtype=np.uint8))
    split = load_cifar10([path])
    cropped = center_crop(split, 24)
    assert cropped.images.shape == (2, 3, 24, 24)
    assert np.array_equal(cropped.images, split.images[:, :, 4:28, 4:28])
    with pytest.raises(DataFormatError):
        center_crop(split, 40)


# -- real data --------------------------------------------------------------


def test_real_mnist(data_dir):
    paths = mnist_paths(data_dir)
    train = load_mnist(*paths["train"])
    test = load_mnist(*paths["test"], role="test")
    assert len(train) == 60_000 and len(test) == 10_000
    assert train.images.shape[1:] == (1, 28, 28)
    assert set(np.unique(train.labels)) == set(range(10))
    # pixel density of the digit images: mostly background zeros
    assert 0.15 < (train.images > 0).mean() < 0.25


def test_real_cifar10(data_dir):
    paths = cifar10_paths(data_dir)
    if not os.path.exists(paths["train"][0]):
        pytest.skip("CIFAR-10 binaries not present")
    train = load_cifar10(paths["train"])
    test = load_cifar10(paths["test"], role="test")
    assert len(train) == 50_000 and len(test) == 10_000
    counts = np.bincount(train.labels, minlength=10)
    assert np.all(counts == 5_000)
    assert np.all(np.bincount(test.labels, minlength=10) == 1_000)
