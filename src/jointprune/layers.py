"""Layer set for the small sequential networks used in the experiments.

Everything runs on numpy.  Layers take and return (B, C, H, W)-shaped
arrays; every 4-D activation a layer makes is stored batch-innermost, as
a C-contiguous (C, H, W, B) array handed on as its ``transpose(3, 0, 1,
2)`` view, and every layer also accepts other strides (an NCHW input) and
gives the same bytes.  2-D activations are C-order (flatten copies the
batch-innermost view).  A train-mode forward caches what the layer's
backward pass needs, so a layer instance serves one forward/backward pair
at a time (the network is mutated by a single writer); a conv backward
consumes it, and an eval-mode forward keeps no backward state.  skip_save and skip_add are kind markers
with no forward or backward: the network carries their branch through a
pass.

One window rule serves conv and pooling: a k x k window at stride s over
a (C, H, W, B) array padded by p (``_padded``) is read as its k*k strided
tap views (``_taps``), in (i, j) row-major order, and a gradient scattered
into such a padded array is cropped back (``_cropped``).

Conv lowers to (C*k*k, oh*ow*B) im2col columns: a single sample's in one
strided copy from the windows of its zero-padded copy, a batch's straight
from the unpadded input with each kernel tap clipped to the output
positions that read real input, so no buffer is cleared first.  The GEMM
runs in one call over all units of the output, one BLAS GEMM per unit: a
single sample's whole output, else one output row of the batch, or one
output position when a row's columns would outgrow the input.  Train and
eval forwards run one block loop: a train forward lowers the whole output
as one block and keeps its columns for backward; an eval forward streams
blocks of whole units through one column buffer bounded by
``EVAL_COLS_BYTES``.  Both make the same per-unit calls, so they give the
same bytes, and the output already has the (C, H, W, B) layout.  Backward
computes ``dw`` in one GEMM over all columns, frees them, and scatter-adds
``dx`` through the taps of a zeroed padded gradient; the first weight layer
of a network skips ``dx``.  The effective-MAC counter sums the taps of a
layer input's zero-padded per-position nonzero counts.

An eval-mode fc forward of a single sample through a large layer with few
nonzero inputs multiplies only the weight rows of those inputs (see
``Dense.forward``); every other fc forward is the dense ``x @ w + b``.

Pooling reduces the taps of its padded input one at a time, with no
window tensor, and runs its tap loop, forward and backward, one block of
whole channels at a time: as many as fit ``BLOCK_BYTES`` (256 KB) of the
padded input, so that the tap passes over a block find it in L2 cache (a
single sample is one block).  Channels are independent and each element
keeps its tap order, so blocks change no byte; convnet5's 3x3/s1 max pool
backward at batch 100 went from 21-25 to 14 ms.  Nested-loop, padded-im2col and NCHW-tap references live in
the test suite and must agree exactly at f64 (byte for byte where the
arithmetic is unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .fields import ANY, AT_LEAST_ONE, FRACTION, NON_NEGATIVE, OPEN_UNIT, check


# every geometry key each kind reads without a default: the type its value
# is cast to and the rule the cast value must pass (see ``fields.check``)
_COUNT = (int, AT_LEAST_ONE)
_PAD = (int, NON_NEGATIVE)
_POOL = {"window": _COUNT, "stride": _COUNT, "pad": _PAD}
_TAG = {"tag": (str, ANY)}
_GEOMETRY = {
    "fc": {"n_in": _COUNT, "n_out": _COUNT},
    "conv2d": {"in_ch": _COUNT, "out_ch": _COUNT, "kernel": _COUNT, "stride": _COUNT, "pad": _PAD},
    "maxpool": _POOL,
    "avgpool": _POOL,
    "leaky_relu": {"slope": (float, OPEN_UNIT)},
    "dropout": {"rate": (float, FRACTION)},
    "skip_save": _TAG,
    "skip_add": _TAG,
}
# each weight layer kind's weight and bias shapes, from its geometry
_PARAM_SHAPES = {
    "fc": lambda g: ((g["n_in"], g["n_out"]), (g["n_out"],)),
    "conv2d": lambda g: ((g["out_ch"], g["in_ch"], g["kernel"], g["kernel"]), (g["out_ch"],)),
}


@dataclass
class LayerSpec:
    """Declarative layer description: kind plus kind-specific geometry."""

    kind: str
    geometry: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in LAYER_CLASSES:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not isinstance(self.geometry, dict):
            raise ConfigError(f"{self.kind} geometry must be a mapping, got {self.geometry!r}")
        rules = _GEOMETRY.get(self.kind, {})
        if missing := [k for k in rules if k not in self.geometry]:
            raise ConfigError(f"{self.kind} layer geometry lacks {', '.join(missing)}")
        for key, (hint, rule) in rules.items():
            self.geometry[key] = check(f"{self.kind} {key}", self.geometry[key], hint, **rule)


def fc(n_in, n_out):
    return LayerSpec("fc", {"n_in": n_in, "n_out": n_out})


def conv2d(in_ch, out_ch, kernel, stride=1, pad=0):
    return LayerSpec(
        "conv2d",
        {"in_ch": in_ch, "out_ch": out_ch, "kernel": kernel, "stride": stride, "pad": pad},
    )


def maxpool(window, stride=None, pad=0):
    return LayerSpec("maxpool", {"window": window, "stride": stride or window, "pad": pad})


def avgpool(window, stride=None, pad=0):
    return LayerSpec("avgpool", {"window": window, "stride": stride or window, "pad": pad})


def relu():
    return LayerSpec("relu")


def leaky_relu(slope=0.1):
    return LayerSpec("leaky_relu", {"slope": slope})


def dropout(rate):
    return LayerSpec("dropout", {"rate": rate})


def flatten():
    return LayerSpec("flatten")


def skip_save(tag="skip"):
    return LayerSpec("skip_save", {"tag": tag})


def skip_add(tag="skip"):
    return LayerSpec("skip_add", {"tag": tag})


# ---------------------------------------------------------------------------


def _out_window(kind, g, k, in_shape):
    """The (oh, ow) output window of a k x k kernel or pooling window at
    ``g``'s stride and pad over a (C, H, W) input; ShapeError when empty."""
    oh, ow = ((n + 2 * g["pad"] - k) // g["stride"] + 1 for n in in_shape[1:])
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"{kind} geometry {g} yields empty output for input {in_shape}")
    return oh, ow


def _padded(x4, p, fill):
    """The (C, H + 2p, W + 2p, B) copy of a (C, H, W, B) array, padded with
    ``fill``; an unpadded one is only made contiguous (a no-op when it is)."""
    if not p:
        return np.ascontiguousarray(x4)
    c, h, w, b = x4.shape
    xp = np.full((c, h + 2 * p, w + 2 * p, b), fill, dtype=x4.dtype)
    xp[:, p:p + h, p:p + w] = x4
    return xp


def _taps(xp, k, s, oh, ow):
    """Strided views of a padded (C, H, W, B) array, one per window offset
    (i, j) of a k x k window at stride s, in row-major order; view (i, j)
    holds element (i, j) of every window of the oh x ow output."""
    return [xp[:, i:i + s * oh:s, j:j + s * ow:s] for i in range(k) for j in range(k)]


def _channel_blocks(xp):
    """Channel slices of a padded (C, H, W, B) array, each of as many whole
    channels as fit ``BLOCK_BYTES`` (at least one), so that a pass
    over a block's taps finds the block still in cache.  A single sample
    (B == 1) is one block: it is small, and there every call costs more
    than its bytes."""
    c, b = xp.shape[0], xp.shape[-1]
    per = c if b == 1 else max(1, BLOCK_BYTES // xp[0].nbytes)
    return [slice(c0, c0 + per) for c0 in range(0, c, per)]


def _cropped(dxp, p):
    """The (B, C, H, W) view of a padded (C, H, W, B) gradient, cropped by
    the pad."""
    return dxp[:, p:dxp.shape[1] - p, p:dxp.shape[2] - p].transpose(3, 0, 1, 2)


def _tap_span(n_in, n_out, off, s):
    """Output positions [lo, hi) whose input index o*s + off lies in
    [0, n_in), and the input slice they read."""
    lo = max(0, -(off // s))
    hi = max(lo, min(n_out, (n_in - 1 - off) // s + 1))
    first = lo * s + off
    return slice(lo, hi), slice(first, first + s * (hi - lo), s)


def _im2col(x4, k, s, p, ys, xs, buf):
    """Columns of the output window ``ys`` x ``xs`` (ranges) of a conv over
    the (C, H, W, B) input ``x4``, filled into the front of the flat
    ``buf`` whatever it held: a (C*k*k, len(ys)*len(xs)*B) array, row
    (c, i, j), column (y, x, b), so every tap copies rows of B elements.
    Each kernel tap (i, j), row-major, writes its input window clipped to
    the output positions that read the unpadded input and zeros only the
    entries that read padding.  An input whose batch is not innermost (an
    NCHW array viewed as (C, H, W, B)) has only the rows this window reads
    transposed.  A single sample (B == 1) is instead copied once from a
    (c, i, j, y, x) view of the k x k windows of its contiguous zero-padded
    copy, made from that copy's strides, with the same bytes."""
    c, h, w, b = x4.shape
    ny, nx = len(ys), len(xs)
    shape = (c, k, k, ny, nx, b)
    cols = buf[:math.prod(shape)].reshape(shape)
    if b == 1:
        # a single sample fills its columns in one strided copy from the
        # k x k windows of a zero-padded copy: the k*k tap copies of a few
        # hundred elements each cost more in calls than in bytes.  The
        # (c, i, j, y, x) windows are a view of xp's buffer with xp's
        # strides: 0.3 us, where sliding_window_view, its slicing and its
        # transpose take 8 us; nothing but this copy reads the view
        xp = _padded(x4, p, 0)
        sc, sy, sx, _ = xp.strides
        cols[..., 0] = np.ndarray(shape[:-1], xp.dtype, xp, ys.start * s * sy + xs.start * s * sx,
                                  (sc, sy, sx, s * sy, s * sx))
        return cols.reshape(c * k * k, -1)
    # a batch copies each tap straight from the input rows it reads: a
    # padded copy of the whole batch slows the stride-2 layers 1.2-1.7x
    row0 = max(0, ys.start * s - p)
    xb = x4[:, row0:max(row0, (ys.stop - 1) * s - p + k)]
    if xb.strides[-1] != xb.itemsize:
        xb = np.ascontiguousarray(xb)
    x_spans = [_tap_span(w, nx, xs.start * s + j - p, s) for j in range(k)]
    for i in range(k):
        oy, rows = _tap_span(xb.shape[1], ny, ys.start * s + i - p - row0, s)
        for j, (ox, xcols) in enumerate(x_spans):
            cols[:, i, j, oy, ox] = xb[:, rows, xcols]
            if oy.start:
                cols[:, i, j, :oy.start] = 0
            if oy.stop < ny:
                cols[:, i, j, oy.stop:] = 0
            if ox.start:
                cols[:, i, j, oy, :ox.start] = 0
            if ox.stop < nx:
                cols[:, i, j, oy, ox.stop:] = 0
    return cols.reshape(c * k * k, -1)


def _unit_gemm(w2, cols, n, out2):
    """``out2 = w2 @ cols`` as one BLAS GEMM per unit of ``n`` columns.  BLAS
    rounds a column by where it falls in its call's tiles, so an eval
    forward, which lowers blocks of whole units, gives the train forward's
    bytes only through the same per-unit calls.  A one-output-channel
    product would be a gemv per unit, whose rounding depends on the column
    stride (the whole columns' or a block's), so it runs as a GEMM with a
    zero second row."""
    units = cols.reshape(len(cols), -1, n).transpose(1, 0, 2)
    if len(w2) > 1:
        np.matmul(w2, units, out=out2.reshape(len(w2), -1, n).transpose(1, 0, 2))
    else:
        out2[0] = np.matmul(np.vstack([w2, np.zeros_like(w2)]), units)[:, 0].ravel()


# Byte budget of the im2col column buffer of an eval-mode conv forward,
# which lowers the output a block of whole GEMM units at a time (at least
# one unit, however small the budget).  Whole-batch columns run to
# hundreds of MB at batch 500 (196 MB for lenet4's conv2), and then page
# faults and cache misses, not the GEMM, set the eval speed.
EVAL_COLS_BYTES = 4 << 20

# Byte budget of the blocks a train step's memory-bound passes run in: a
# pooling layer's k*k tap passes, forward and backward, run one block of
# whole channels of the padded input at a time (``_channel_blocks``), and
# an optimizer update one flat chunk of each param (``optim``), so that the
# few block-sized arrays a pass reads and writes stay in a 2 MB L2 cache.
# Channels pool independently and every element keeps its tap order and
# its op order, so the bytes do not depend on the budget.  Measured (ms,
# whole arrays/256 KB blocks, f32, batch 100, one core of a 2-vCPU x86
# host, in process): convnet5's 3x3/s1/p1 max pool over 64x12x12 (5 MB
# padded input, 22 blocks of 3 channels) 5.9/4.5 forward and 21-25/14
# backward; its Adadelta update 9.2-10.1/5.0-5.5, lenet4's 11.9-12.6/6.1-6.3;
# its whole dense train step 115-118/98-100.  Budgets of 128 KB and 512 KB
# to 1 MB were slower on the max pool or the update.
BLOCK_BYTES = 256 << 10

# Weight count from which a batch-1 eval fc forward gathers the weight rows
# of its nonzero inputs when at most a quarter of them are nonzero (see
# ``Dense.forward``).  Measured (us, dense/gathered, f32, one BLAS thread of
# a 2-vCPU x86 host) at input densities 0.02, 0.10, 0.17, 0.25 and 0.35:
# 2450x500 162/15, 163/32, 156/59, 158/111, 153/197; 2304x384 111/16,
# 103/31, 107/43, 106/72, 103/114.  Below 2**18 weights the gather saves a
# few us at best: 784x300 17/8 at 0.02 but 13/19 at 0.25, and 500x10,
# 192x10 and 4096x10 were slower gathered at every density (by 3 to 31 us).
FC_GATHER_MIN_WEIGHTS = 1 << 18


class Param:
    """A trainable array with its gradient and an optional static binary mask.

    The mask, when set, is a {0,1} array congruent to ``value``; pruned
    positions stay at exactly zero and receive zero gradient.
    """

    __slots__ = ("name", "value", "grad", "mask")

    def __init__(self, name, value):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.mask = None

    def set_mask(self, mask):
        mask = np.asarray(mask, dtype=self.value.dtype)
        if mask.shape != self.value.shape:
            raise ShapeError(
                f"mask shape {mask.shape} != param {self.name} shape {self.value.shape}"
            )
        self.mask = mask
        self.value *= mask

    def density(self):
        """Fraction of weights kept by the mask (1.0 when unmasked)."""
        if self.mask is None:
            return 1.0
        return float(self.mask.sum()) / self.mask.size


class Layer:
    """Every layer kind is built as ``cls(spec)``, with no params: a weight
    layer makes its own once, in ``make_params``.  Each kind but the skip
    markers defines ``forward(x, train=False, rng=None)``, which returns the
    output, and ``backward(dout)``, which returns the input gradient."""

    kind = None

    def __init__(self, spec):
        self.spec = spec
        self.params = []

    def make_params(self, rng, dtype, stored=None):
        """A weight layer's ``w`` and ``b``, of the shapes ``_PARAM_SHAPES``
        gives: He-uniform weights, U(-sqrt(6/fan_in), sqrt(6/fan_in)) with
        fan_in the weights per output, drawn from ``rng``, and zero biases;
        or, with ``stored``, ``dtype`` copies of ``stored(name, shape)``."""
        if self.kind not in _PARAM_SHAPES:
            return
        w_shape, b_shape = _PARAM_SHAPES[self.kind](self.spec.geometry)
        if stored is None:
            limit = np.sqrt(6.0 / (math.prod(w_shape) // b_shape[0]))
            w, b = rng.uniform(-limit, limit, w_shape).astype(dtype), np.zeros(b_shape, dtype)
        else:  # both are fetched, and so checked, before either is copied
            w, b = (v.astype(dtype) for v in (stored("w", w_shape), stored("b", b_shape)))
        self.w, self.b = Param("w", w), Param("b", b)
        self.params = [self.w, self.b]

    def out_shape(self, in_shape):
        return in_shape


class Dense(Layer):
    kind = "fc"

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.spec.geometry["n_in"]:
            raise ShapeError(
                f"fc expects input of shape ({self.spec.geometry['n_in']},), got {in_shape}"
            )
        return (self.spec.geometry["n_out"],)

    def forward(self, x, train=False, rng=None):
        """``x @ w + b``.  An eval forward of a single sample through a large
        layer (at least ``FC_GATHER_MIN_WEIGHTS`` weights) with at most a
        quarter of its inputs nonzero multiplies only the weight rows of the
        nonzero inputs, ``x[:, nz] @ w[nz] + b``, as a zero-skipping
        accelerator does.  So there a non-finite weight in a row whose
        input is zero is not read, and the output stays finite."""
        self._x = x if train else None
        w = self.w.value
        if not train and len(x) == 1 and w.size >= FC_GATHER_MIN_WEIGHTS:
            nz = np.flatnonzero(x[0])
            if 4 * len(nz) <= len(w):
                return x[:, nz] @ w[nz] + self.b.value
        return x @ w + self.b.value

    def backward(self, dout, input_grad=True):
        self.w.grad = self._x.T @ dout
        self.b.grad = dout.sum(axis=0)
        return dout @ self.w.value.T if input_grad else None


class Conv2d(Layer):
    kind = "conv2d"

    def out_shape(self, in_shape):
        g = self.spec.geometry
        if len(in_shape) != 3 or in_shape[0] != g["in_ch"]:
            raise ShapeError(f"conv2d expects ({g['in_ch']}, H, W) input, got {in_shape}")
        return (g["out_ch"], *_out_window(self.kind, g, g["kernel"], in_shape))

    def forward(self, x, train=False, rng=None):
        g = self.spec.geometry
        k, s, p = g["kernel"], g["stride"], g["pad"]
        b, _, h, w = x.shape
        _, oh, ow = self.out_shape(x.shape[1:])
        w2 = self.w.value.reshape(g["out_ch"], -1)
        x4 = x.transpose(1, 2, 3, 0)
        self._cache = None  # free the last train forward's columns first
        # positions per GEMM unit: the whole output of a single sample, else
        # one output row, or one output position when a row's columns would
        # outgrow the input (k*k*ow > h*w) at a batch at least a row wide
        unit = oh * ow if b == 1 else ow if b < ow or k * k * ow <= h * w else 1
        out = np.empty((g["out_ch"], oh, ow, b), dtype=np.result_type(w2, x))
        out2 = out.reshape(g["out_ch"], -1)
        # output positions per block of columns: a train forward lowers the
        # whole output in one block, whose columns backward keeps; an eval
        # forward streams blocks of whole units (whole rows, or part of one
        # row) through one bounded column buffer
        per = oh * ow if train else max(unit, EVAL_COLS_BYTES // (w2.shape[1] * b * x.itemsize))
        ny, nx = (min(oh, per // ow), ow) if per >= ow else (1, per)
        buf = np.empty(w2.shape[1] * ny * nx * b, dtype=x.dtype)
        for y0 in range(0, oh, ny):
            ys = range(y0, min(oh, y0 + ny))
            for x0 in range(0, ow, nx):
                xs = range(x0, min(ow, x0 + nx))
                lo = (y0 * ow + x0) * b
                cols = _im2col(x4, k, s, p, ys, xs, buf)
                _unit_gemm(w2, cols, unit * b, out2[:, lo:lo + cols.shape[1]])
        if train:
            self._cache = (x.shape, cols)
        out2 += self.b.value[:, None]
        return out.transpose(3, 0, 1, 2)

    def backward(self, dout, input_grad=True):
        g = self.spec.geometry
        (b, c, h, w), cols = self._cache
        self._cache = None  # a backward consumes its forward
        # no copy when dout is batch-innermost, as every layer returns it
        dout2 = np.ascontiguousarray(dout.transpose(1, 2, 3, 0)).reshape(g["out_ch"], -1)
        # cols @ dout2.T runs 1.2-1.7x faster than dout2 @ cols.T on the preset layers
        self.w.grad = (cols @ dout2.T).T.reshape(self.w.value.shape)
        del cols  # freed before dcols, which is as large, is made
        self.b.grad = dout2.sum(axis=1)
        if not input_grad:
            return None
        k, s, p = g["kernel"], g["stride"], g["pad"]
        oh, ow = dout.shape[2:]
        w2t = self.w.value.reshape(g["out_ch"], -1).T
        if len(w2t) > 1:
            dcols = w2t @ dout2
        else:
            # one input channel and a 1x1 kernel make this product a BLAS
            # gemv, which rounds its last few columns by their position; it
            # runs over the columns in NCHW (sample-major) order, so dx has
            # the bytes of the same conv on an NCHW batch
            nchw = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(len(dout2), -1)
            dcols = (w2t @ nchw).reshape(b, oh, ow).transpose(1, 2, 0).reshape(1, -1)
        # scatter-add each tap's columns into a zeroed padded gradient, in
        # (i, j) row-major order, then crop the pad off
        dxp = np.zeros((c, h + 2 * p, w + 2 * p, b), dtype=dcols.dtype)
        tap_cols = dcols.reshape(c, k * k, oh, ow, b).swapaxes(0, 1)
        for dt, dc in zip(_taps(dxp, k, s, oh, ow), tap_cols):
            dt += dc
        return _cropped(dxp, p)


class _Pool(Layer):
    """Pooling reduces the k*k strided window taps of a padded (C, H, W, B)
    copy of the input one at a time, in (i, j) row-major order, with no
    window tensor, one channel block (``_channel_blocks``) at a time; every
    tap pass runs over rows of B elements."""

    def out_shape(self, in_shape):
        g = self.spec.geometry
        if len(in_shape) != 3:
            raise ShapeError(f"{self.kind} expects (C, H, W) input, got {in_shape}")
        return (in_shape[0], *_out_window(self.kind, g, g["window"], in_shape))


class MaxPool2d(_Pool):
    kind = "maxpool"

    def forward(self, x, train=False, rng=None):
        g = self.spec.geometry
        _, oh, ow = self.out_shape(x.shape[1:])
        xp = _padded(x.transpose(1, 2, 3, 0), g["pad"], -np.inf)
        out = np.empty((len(xp), oh, ow, len(x)), dtype=x.dtype)
        for blk in _channel_blocks(xp):
            taps = _taps(xp[blk], g["window"], g["stride"], oh, ow)
            o = out[blk]
            np.copyto(o, taps[0])
            for t in taps[1:]:
                # np.maximum returns its second operand on a tie (+0.0 vs
                # -0.0), so the running max keeps the first maximal value, as
                # argmax did
                np.maximum(t, o, out=o)
        self._cache = (xp, out) if train else None
        return out.transpose(3, 0, 1, 2)

    def backward(self, dout):
        """Route each gradient to the first maximal window position."""
        g = self.spec.geometry
        xp, out = self._cache
        bits = np.ascontiguousarray(dout.transpose(1, 2, 3, 0)).view(f"u{dout.itemsize}")
        dxp = np.zeros(xp.shape, dtype=dout.dtype)
        window = (g["window"], g["stride"], *out.shape[1:3])
        for blk in _channel_blocks(xp):
            o, bb = out[blk], bits[blk]
            free = np.ones(o.shape, dtype=bool)
            for t, dt in zip(_taps(xp[blk], *window), _taps(dxp[blk], *window)):
                hit = t == o
                hit &= free
                free ^= hit
                # the gradient on a hit, +0.0 elsewhere, as np.where(hit,
                # dout, 0) gives it but without a branch per element: the
                # bit pattern times 0 or 1
                dt += np.multiply(bb, hit, dtype=bb.dtype).view(dout.dtype)
        return _cropped(dxp, g["pad"])


class AvgPool2d(_Pool):
    kind = "avgpool"

    def forward(self, x, train=False, rng=None):
        g = self.spec.geometry
        _, oh, ow = self.out_shape(x.shape[1:])
        xp = _padded(x.transpose(1, 2, 3, 0), g["pad"], 0.0)
        out = np.empty((len(xp), oh, ow, len(x)), dtype=x.dtype)
        for blk in _channel_blocks(xp):
            taps = _taps(xp[blk], g["window"], g["stride"], oh, ow)
            o = out[blk]
            # sum from +0.0 like np.mean: an all -0.0 window gives +0.0
            np.add(taps[0], 0.0, out=o)
            for t in taps[1:]:
                o += t
            o /= len(taps)
        self._cache = xp.shape if train else None
        return out.transpose(3, 0, 1, 2)

    def backward(self, dout):
        g = self.spec.geometry
        dxp = np.zeros(self._cache, dtype=dout.dtype)
        window = (g["window"], g["stride"], *dout.shape[2:])
        d4 = dout.transpose(1, 2, 3, 0)
        for blk in _channel_blocks(dxp):
            taps = _taps(dxp[blk], *window)
            share = d4[blk] / len(taps)
            for dt in taps:
                dt += share
        return _cropped(dxp, g["pad"])


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False, rng=None):
        pos = x > 0
        self._pos = pos if train else None
        return x * pos

    def backward(self, dout):
        return dout * self._pos


class LeakyReLU(Layer):
    kind = "leaky_relu"

    def forward(self, x, train=False, rng=None):
        slope = self.spec.geometry["slope"]
        self._pos = x > 0 if train else None
        # same bits as np.where(x > 0, x, slope * x), since 0 < slope < 1
        out = slope * x
        return np.maximum(x, out, out=out)

    def backward(self, dout):
        """The bits of np.where(pos, dout, slope * dout), selected without a
        branch per element: (low ^ dout) * pos ^ low on unsigned views."""
        low = self.spec.geometry["slope"] * dout
        uint = f"u{dout.itemsize}"
        sel = low.view(uint) ^ dout.view(uint)
        np.multiply(sel, self._pos, out=sel)
        sel ^= low.view(uint)
        return sel.view(dout.dtype)


class Dropout(Layer):
    """Inverted dropout: scaling happens at train time, eval is identity."""

    kind = "dropout"

    def forward(self, x, train=False, rng=None):
        rate = self.spec.geometry["rate"]
        if not train or rate == 0.0:
            self._scale_mask = None
            return x
        if rng is None:
            raise ConfigError("dropout in train mode needs an rng")
        keep = (rng.random(x.shape) >= rate).astype(x.dtype)
        self._scale_mask = keep / (1.0 - rate)
        return x * self._scale_mask

    def backward(self, dout):
        if self._scale_mask is None:
            return dout
        return dout * self._scale_mask


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class SkipSave(Layer):
    """Marks where a pass saves its activation as a skip branch; the
    network carries the branch (see :class:`~jointprune.network.Network`)."""

    kind = "skip_save"


class SkipAdd(Layer):
    """Marks where a pass adds the saved branch back in (identity shortcut)."""

    kind = "skip_add"


LAYER_CLASSES = {cls.kind: cls for cls in (
    Dense, Conv2d, MaxPool2d, AvgPool2d, ReLU, LeakyReLU, Dropout, Flatten, SkipSave, SkipAdd)}


def build_layer(spec, rng, dtype):
    layer = LAYER_CLASSES[spec.kind](spec)
    layer.make_params(rng, dtype)
    return layer
