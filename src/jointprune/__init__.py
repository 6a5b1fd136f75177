"""Joint weight/activation pruning toolkit.

Trains small dense reference models, learns static weight masks and
dynamic per-sample activation winner masks simultaneously, and measures
the resulting reduction in multiply-accumulate operations.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DivergenceError,
    JointPruneError,
    ShapeError,
)
from .layers import LayerSpec, Param
from .network import Network, loss_and_backward
from .sparsity import (
    WinnerRateConfig,
    prune_weights_by_magnitude,
    threshold_for_target_density,
)

__version__ = "0.1.0"
