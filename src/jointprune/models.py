"""Model presets: architectures, maskable layers and pruning targets.

Each preset bundles the layer stack, reference winner rates keyed by the
indices of the activation tensors that feed the next weight layer (the
maskable points), and per-layer weight density targets used for magnitude
pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import check, one_of
from .layers import (
    avgpool,
    conv2d,
    dropout,
    fc,
    flatten,
    leaky_relu,
    maxpool,
    relu,
    skip_add,
    skip_save,
)
from .network import Network


@dataclass
class ModelPreset:
    name: str
    input_shape: tuple
    specs: list
    reference_rates: dict  # layer index -> winner rate
    weight_targets: dict  # weight-layer index -> kept density
    dataset: str = "mnist"
    crop: int | None = None
    base_dropout: float = 0.0

    @property
    def mask_layers(self):
        """The layer indices that carry winner masks: those with a rate."""
        return sorted(self.reference_rates)

    def build(self, seed=0, dtype=np.float32):
        return Network(self.specs, self.input_shape, dtype=dtype, seed=seed)


def mlp3(base_dropout=0.2):
    """784-300-100-10 perceptron; masks sit on the hidden relu outputs."""
    d = base_dropout
    specs = [
        flatten(),       # 0
        fc(784, 300),    # 1
        relu(),          # 2  masked
        dropout(d),      # 3
        fc(300, 100),    # 4
        relu(),          # 5  masked
        dropout(d),      # 6
        fc(100, 10),     # 7
    ]
    return ModelPreset(
        name="mlp3",
        input_shape=(1, 28, 28),
        specs=specs,
        reference_rates={2: 0.12, 5: 0.24},
        weight_targets={1: 0.10, 4: 0.10, 7: 0.20},
        dataset="mnist",
        base_dropout=d,
    )


def lenet4(base_dropout=0.5):
    """Two 5x5 conv blocks plus 2450-500-10 fc head on 28x28 input."""
    specs = [
        conv2d(1, 20, 5, stride=1, pad=2),   # 0
        relu(),                              # 1
        maxpool(2, 2),                       # 2  masked (feeds conv2)
        conv2d(20, 50, 5, stride=1, pad=2),  # 3
        relu(),                              # 4
        maxpool(2, 2),                       # 5  masked (feeds fc1)
        flatten(),                           # 6
        fc(2450, 500),                       # 7
        relu(),                              # 8  masked
        dropout(base_dropout),               # 9
        fc(500, 10),                         # 10
    ]
    return ModelPreset(
        name="lenet4",
        input_shape=(1, 28, 28),
        specs=specs,
        reference_rates={2: 0.066, 5: 0.019, 8: 0.122},
        weight_targets={0: 0.60, 3: 0.10, 7: 0.08, 10: 0.18},
        dataset="mnist",
        base_dropout=base_dropout,
    )


def convnet5(base_dropout=0.3):
    """Strided 5x5 conv pair + 2304-384-192-10 head on 24x24 CIFAR crops."""
    specs = [
        conv2d(3, 64, 5, stride=2, pad=2),    # 0  -> 12x12
        relu(),                               # 1
        maxpool(3, 1, pad=1),                 # 2  masked (feeds conv2)
        conv2d(64, 64, 5, stride=2, pad=2),   # 3  -> 6x6
        relu(),                               # 4
        avgpool(3, 1, pad=1),                 # 5  masked (feeds fc1)
        flatten(),                            # 6
        fc(2304, 384),                        # 7
        relu(),                               # 8  masked
        dropout(base_dropout),                # 9
        fc(384, 192),                         # 10
        relu(),                               # 11 masked
        dropout(base_dropout),                # 12
        fc(192, 10),                          # 13
    ]
    return ModelPreset(
        name="convnet5",
        input_shape=(3, 24, 24),
        specs=specs,
        reference_rates={2: 0.506, 5: 0.173, 8: 0.099, 11: 0.448},
        weight_targets={0: 0.70, 3: 0.50, 7: 0.40, 10: 0.30, 13: 0.50},
        dataset="cifar10",
        crop=24,
        base_dropout=base_dropout,
    )


def leaky6(base_dropout=0.0):
    """Six weight layers with leaky-ReLU and one additive skip; no intrinsic
    activation zeros, so every winner mask works on dense tensors."""
    if base_dropout:
        raise ConfigError("leaky6 has no dropout layers: train.base_dropout must be 0")
    specs = [
        conv2d(3, 32, 3, stride=1, pad=1),    # 0
        leaky_relu(),                         # 1  masked
        conv2d(32, 32, 3, stride=2, pad=1),   # 2  -> 16x16
        leaky_relu(),                         # 3
        skip_save("block"),                   # 4  masked (feeds conv 5)
        conv2d(32, 32, 3, stride=1, pad=1),   # 5
        leaky_relu(),                         # 6
        skip_add("block"),                    # 7  masked (feeds conv 8)
        conv2d(32, 64, 3, stride=2, pad=1),   # 8  -> 8x8
        leaky_relu(),                         # 9  masked
        conv2d(64, 64, 3, stride=1, pad=1),   # 10
        leaky_relu(),                         # 11 masked
        flatten(),                            # 12
        fc(4096, 10),                         # 13
    ]
    return ModelPreset(
        name="leaky6",
        input_shape=(3, 32, 32),
        specs=specs,
        reference_rates={1: 0.45, 4: 0.45, 7: 0.45, 9: 0.45, 11: 0.45},
        weight_targets={0: 0.60, 2: 0.60, 5: 0.60, 8: 0.60, 10: 0.60, 13: 0.60},
        dataset="cifar10",
        base_dropout=0.0,
    )


PRESETS = {
    "mlp3": mlp3,
    "lenet4": lenet4,
    "convnet5": convnet5,
    "leaky6": leaky6,
}


def get_preset(name, **kwargs):
    return PRESETS[check("model", name, str, **one_of(*PRESETS))](**kwargs)
