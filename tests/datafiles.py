"""Writers of the dataset files the loaders read, MNIST IDX files and
CIFAR-10 binary batches, for tests that run on synthetic data."""

import struct

import numpy as np

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
