"""Exception types shared across the toolkit."""


class JointPruneError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(JointPruneError):
    """Array shape mismatch; message names the offending layer when known."""


class ConfigError(JointPruneError):
    """Invalid or missing configuration value."""


class DataFormatError(JointPruneError):
    """Malformed dataset file (bad magic, truncation, count mismatch)."""


class CheckpointError(JointPruneError):
    """Corrupt, incompatible or inconsistent checkpoint file."""


class DivergenceError(JointPruneError):
    """Training produced non-finite loss or gradients."""
