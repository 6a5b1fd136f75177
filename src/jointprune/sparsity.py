"""Dynamic activation winner selection and static magnitude weight masking.

Winner selection keeps, per sample, the k activations of largest absolute
value where k = ceil(rate * N).  Magnitude (not signed value) is the
criterion so that large negative leaky-ReLU responses survive.  Ties at the
cut magnitude are broken in favour of the lowest flat index, which makes
reruns deterministic.

Both selection modes find each sample's cut, and weight pruning its
magnitude cut, with one helper, ``_kth_largest_abs``: a partition of a
sample-major |a| copy whose IEEE bits are read as integers, which orders
them as the floats but partitions about twice as fast.  Exact selection
keeps every |a| >= cut; a sample with more ties at the cut than places left
keeps its ties up to one cut position, found with one flat lookup over the
ties listed by sample and position.

The predicted-threshold variant estimates the k-th magnitude from a strided
subsample instead of partitioning the full tensor; the realized winner
count is then approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .fields import ANY, NON_NEGATIVE, RATE, check, check_fields, one_of, setting

EXACT_TOPK = "exact_topk"
PREDICTED_THRESHOLD = "predicted_threshold"


@dataclass
class WinnerRateConfig:
    """Per-layer winner rates plus the down-sampling setup for prediction:
    the one description of a network's activation masks, which :meth:`mask`
    selects layer by layer.

    ``per_layer_rate`` maps a network layer index to the kept fraction of
    that layer's output activations.  The final (output) layer must never
    appear here.  ``downsample_rate`` is only consulted in
    ``predicted_threshold`` mode.
    """

    per_layer_rate: dict[int, float] = setting(RATE, "prune.winner_rates", default_factory=dict)
    downsample_rate: float = setting(RATE, "sparsity.downsample_rate", 1.0)
    selection_mode: str = setting(one_of(EXACT_TOPK, PREDICTED_THRESHOLD),
                                  "sparsity.selection_mode", default=EXACT_TOPK)
    offset_seed: int = setting(ANY, default=0)

    __post_init__ = check_fields

    def mask(self, layer, acts):
        """The bool winner mask of layer ``layer``'s output batch ``acts``, or
        None when the layer has no rate or keeps everything (rate >= 1).

        A predicted mask subsamples from offset ``offset_seed + layer``,
        modulo the subsample stride, so the start moves from layer to layer.
        """
        rate = self.per_layer_rate.get(layer)
        if rate is None or rate >= 1.0:
            return None
        if self.selection_mode == PREDICTED_THRESHOLD:
            eps = self.downsample_rate
            offset = (self.offset_seed + layer) % _subsample_stride(eps)
            return predicted_mask_batch(acts, rate, eps, offset)
        return select_winners_batch(acts, rate)


def winner_count(rate, n):
    """k = ceil(rate * N), clipped into [1, N]."""
    return min(n, max(1, math.ceil(rate * n)))


def _samples_last(acts):
    """The (N, B) view of a (B, ...) batch with one column per sample: no
    copy when the batch is innermost in memory or outermost (C order)."""
    return acts.transpose(tuple(range(1, acts.ndim)) + (0,)).reshape(-1, acts.shape[0])


def _sample_major_abs(cols):
    """|cols| as a C-order (B, N) array, one row per sample; a bool ``cols``
    is copied as it is.

    A C-order batch needs no transpose.  A batch-innermost ``cols`` is
    transposed in blocks of rows, which keep both sides in cache: a (100,
    32768) f32 transpose takes 2.8 ms in 4096-row blocks and 9.5 ms in one
    pass.  Where a row of ``cols`` spans a multiple of 512 bytes, 4096-row
    blocks stall on cache-set conflicts and 512-row blocks are up to 2.8x
    faster (f32 (32768, 256): 49 against 22 ms); at the other widths
    measured, 4096-row blocks are as fast or faster.
    """
    if cols.T.flags.c_contiguous:
        return np.abs(cols.T)
    n, b = cols.shape
    step = 512 if b * cols.itemsize % 512 == 0 else 4096
    mag = np.empty((b, n), dtype=cols.dtype)
    for lo in range(0, n, step):
        np.abs(cols[lo:lo + step].T, out=mag[:, lo:lo + step])
    return mag


def _kth_largest_abs(cols, r):
    """Each sample's r-th largest magnitude in the (N, B) ``cols``, as a
    contiguous (B,) array.

    The partition runs over the magnitudes' IEEE bits read as signed
    integers: 1.9-2.5x faster than the float partition for f32 and 1.6-1.8x
    for f64, on (100-500, 2304-32768) batches.  ``np.abs``
    clears the sign bit (of -0 and of NaNs too), so the integer order is the
    float order with every NaN above +inf, as ``np.partition`` places them,
    and equal magnitudes have equal bits: the cut is the float partition's
    value, NaN whenever it lands among NaNs.
    """
    n = cols.shape[0]
    rows = _sample_major_abs(cols)
    # np.partition is introselect: expected linear time, no full sort.
    rows.view(f"i{rows.itemsize}").partition(n - r, axis=1)
    # a contiguous threshold: against the strided column rows[:, n - r] the
    # compares that follow take 18.6 ms instead of 1.2 ms on (32768, 100) f32
    return rows[:, n - r].copy()


def select_winners_batch(acts, rate):
    """Exact per-sample bool winner masks for a batch; axis 0 is the sample
    axis, and the masks have the memory layout of ``acts``."""
    acts = np.asarray(acts)
    if acts.size == 0:
        raise ShapeError("cannot select winners from an empty activation tensor")
    cols = _samples_last(acts)
    n, b = cols.shape
    k = winner_count(rate, n)
    if k >= n:
        return np.ones(acts.shape, dtype=bool)
    kth = _kth_largest_abs(cols, k)
    mask = np.abs(cols) >= kth
    # samples with more ties at the cut than places left keep their ties up
    # to the position of the last one that fits; every other sample keeps
    # all of its ties
    # counted as bytes into int32: exact, since a count is at most N (under
    # 2**31 for any sample that fits in memory), and 2.0-2.6x faster than a
    # bool sum into intp, whose accumulator is as slow
    surplus = mask.view(np.uint8).sum(axis=0, dtype=np.int32) - k
    tied = (surplus > 0).nonzero()[0]
    if tied.size:
        # the tie search runs over the tied samples' gathered columns while
        # they are under a quarter of the batch, else over every column: on
        # batch-innermost (9216, 500) and (32768, 256) f32 batches the gather
        # and scatter cost more than the extra columns from 20-30% tied on
        part, j = (tied, np.arange(tied.size)) if 4 * tied.size < b else (slice(None), tied)
        eq = np.abs(cols[:, part]) == kth[part]
        # every tie, ordered by sample and then by position
        at = np.flatnonzero(_sample_major_abs(eq))
        # the position of each tied sample's last kept tie
        last = np.full(eq.shape[1], n)
        last[j] = at[np.searchsorted(at, (j + 1) * n) - surplus[tied] - 1] - j * n
        # in the layout of eq: mixing layouts makes this pass 1.5-3x slower
        drop = np.greater(np.arange(n)[:, None], last, out=np.empty_like(eq))
        drop &= eq
        mask[:, part] ^= drop
    return mask.T.reshape(acts.shape)


def _subsample_stride(eps):
    return max(1, int(1.0 / eps))


def _subsample_indices(n, eps, offset):
    m = max(1, round(eps * n))
    return (offset + np.arange(m) * _subsample_stride(eps)) % n


def predicted_mask_batch(acts, rate, eps, offset=0):
    """Per-sample bool ``|a| > theta`` masks from a subsampled threshold,
    in the memory layout of ``acts``.

    Each sample's theta is the ceil(eps * k)-th largest magnitude among
    round(eps * N) elements taken every floor(1/eps) positions from
    ``offset``.  The comparison is strict, so an all-equal row masks to empty.
    """
    acts = np.asarray(acts)
    cols = _samples_last(acts)
    n = cols.shape[0]
    if eps * n < 1.0:
        raise ConfigError(f"downsample rate {eps} yields an empty subsample for N={n}")
    k = winner_count(rate, n)
    idx = _subsample_indices(n, eps, offset)
    theta = _kth_largest_abs(cols[idx], min(len(idx), max(1, math.ceil(eps * k))))
    return (np.abs(cols) > theta).T.reshape(acts.shape)


def prune_weights_by_magnitude(weights, threshold):
    """Binary keep-mask: 1 iff |w| > threshold.

    Monotone in the threshold; composing with an existing mask keeps the
    static-mask guarantee that pruned weights never come back.
    """
    check("prune threshold", threshold, float, **NON_NEGATIVE)
    weights = np.asarray(weights)
    return (np.abs(weights) > threshold).astype(weights.dtype)


def threshold_for_target_density(weights, target_density):
    """Magnitude cut such that |w| > cut leaves ~target_density of weights.

    Uses the (1 - d) quantile of |w|, found by the partition that winner
    selection uses, on the weights as one (N, 1) column; the achieved
    density is within one weight of the target up to ties.
    """
    target_density = check("target density", target_density, float, **RATE)
    weights = np.asarray(weights)
    if target_density == 1.0:
        return 0.0
    col = weights.reshape(-1, 1)
    # cut just below the keep-th largest magnitude
    kth = _kth_largest_abs(col, winner_count(target_density, col.shape[0]))[0]
    return float(np.nextafter(kth, 0.0))
