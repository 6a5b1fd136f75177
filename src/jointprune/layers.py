"""Layer set for the small sequential networks used in the experiments.

Everything runs on numpy, with NCHW arrays between layers.  A train-mode
forward caches what the layer's backward pass needs, so a layer instance
serves one forward/backward pair at a time (the network is mutated by a
single writer); an eval-mode forward keeps no backward state.

Conv lowers to (C*k*k, B, oh*ow) im2col columns, filled straight from the
unpadded input with each kernel tap clipped to the output positions that
read real input.  Forward is one loop over blocks of samples: each block is
lowered into one zeroed column buffer, and one GEMM per sample writes its
(out_ch, oh*ow) slice of the output.  A train forward's block is the whole
batch, whose columns it keeps; an eval forward's block is bounded by
``EVAL_COLS_BYTES``, so a large batch streams through the buffer.
Backward computes ``dw`` in one GEMM over all columns and scatters ``dx``
back through the matching clipped col2im; the first weight layer of a
network skips ``dx``.  The effective-MAC counter uses the same im2col.

Pooling reduces the k*k strided window taps of a padded copy one at a
time, in (i, j) row-major order, with no window tensor; overlapping
windows work on a channels-last copy.  Nested-loop, padded-im2col and
NCHW-tap references live in the test suite and must agree exactly at f64
(byte for byte where the arithmetic is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass
class LayerSpec:
    """Declarative layer description: kind plus kind-specific geometry."""

    kind: str
    geometry: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.kind == "leaky_relu":
            slope = self.geometry.get("slope", 0.1)
            if not 0.0 < slope < 1.0:
                raise ConfigError(f"leaky_relu slope must be in (0,1), got {slope}")
        if self.kind == "dropout":
            rate = self.geometry.get("rate", 0.5)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"dropout rate must be in [0,1), got {rate}")


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


def _pool_geometry(h, w, window, stride, pad):
    oh = (h + 2 * pad - window) // stride + 1
    ow = (w + 2 * pad - window) // stride + 1
    return oh, ow


def _tap_span(n_in, n_out, off, s):
    """Output positions [lo, hi) whose input index o*s + off lies in
    [0, n_in), and the input slice they read."""
    lo = max(0, -(off // s))
    hi = max(lo, min(n_out, (n_in - 1 - off) // s + 1))
    first = lo * s + off
    return slice(lo, hi), slice(first, first + s * (hi - lo), s)


def _conv_taps(h, w, oh, ow, k, s, p):
    """Per kernel tap (i, j), row-major: the output window clipped to the
    positions that read the unpadded input, and the input rows and columns
    they read (empty for a tap that sees only padding)."""
    for i in range(k):
        ys, rows = _tap_span(h, oh, i - p, s)
        for j in range(k):
            xs, cols = _tap_span(w, ow, j - p, s)
            yield i, j, (ys, xs), (rows, cols)


def _im2col(x, k, s, p, oh, ow, buf=None):
    """(B, C, H, W) -> (C*k*k, B, oh*ow) window copies: row (c, i, j),
    column (b, y*ow + x).  Entries that fall on the zero padding are never
    written, so ``buf``, a zeroed (C, k, k, B', oh, ow) array with B' >= B,
    can be refilled block after block; its first B samples are returned.
    Without ``buf`` the columns get a zeroed buffer of their own."""
    b, c, h, w = x.shape
    if buf is None:
        buf = np.zeros((c, k, k, b, oh, ow), dtype=x.dtype)
    xt = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    for i, j, out_win, in_win in _conv_taps(h, w, oh, ow, k, s, p):
        buf[(slice(None), i, j, slice(b)) + out_win] = xt[(Ellipsis,) + in_win]
    return buf.reshape(c * k * k, -1, oh * ow)[:, :b]


def _col2im(dcols, x_shape, k, s, p):
    """Scatter-add the inverse of :func:`_im2col` into a (B, C, H, W)
    array; taps add in (i, j) row-major order and padding is dropped."""
    b, c, h, w = x_shape
    oh, ow = _pool_geometry(h, w, k, s, p)
    dc = dcols.reshape(c, k, k, b, oh, ow)
    dxt = np.zeros((c, b, h, w), dtype=dcols.dtype)
    for i, j, out_win, in_win in _conv_taps(h, w, oh, ow, k, s, p):
        dxt[(Ellipsis,) + in_win] += dc[(slice(None), i, j, slice(None)) + out_win]
    return np.ascontiguousarray(dxt.transpose(1, 0, 2, 3))


# Byte budget of the im2col column buffer of an eval-mode conv forward,
# which lowers the batch a block of samples at a time.  Whole-batch columns
# run to hundreds of MB at batch 500 (196 MB for lenet4's conv2), and then
# page faults and cache misses, not the GEMM, set the eval speed.
EVAL_COLS_BYTES = 4 << 20


def _uniform_init(rng, shape, fan_in, dtype):
    """He-uniform weights, U(-sqrt(6/fan_in), sqrt(6/fan_in)); zeros without
    an rng, for a network whose params are about to be loaded."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape).astype(dtype)


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
    """Every layer kind is built as ``cls(spec, rng, dtype, skip_state)``;
    ``skip_state`` is the network's dict shared by skip_save/skip_add, and
    a None ``rng`` leaves the weights at zero."""

    kind = None

    def __init__(self, spec, rng, dtype, skip_state):
        self.spec = spec
        self.params = []
        self._skip_state = skip_state

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Dense(Layer):
    kind = "fc"

    def __init__(self, spec, rng, dtype, skip_state):
        super().__init__(spec, rng, dtype, skip_state)
        n_in, n_out = spec.geometry["n_in"], spec.geometry["n_out"]
        self.w = Param("w", _uniform_init(rng, (n_in, n_out), n_in, dtype))
        self.b = Param("b", np.zeros(n_out, dtype=dtype))
        self.params = [self.w, self.b]

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.spec.geometry["n_in"]:
            raise ShapeError(
                f"fc expects input of shape ({self.spec.geometry['n_in']},), got {in_shape}"
            )
        return (self.spec.geometry["n_out"],)

    def forward(self, x, train=False, rng=None):
        self._x = x if train else None
        return x @ self.w.value + self.b.value

    def backward(self, dout, input_grad=True):
        self.w.grad = self._x.T @ dout
        self.b.grad = dout.sum(axis=0)
        return dout @ self.w.value.T if input_grad else None


class Conv2d(Layer):
    kind = "conv2d"

    def __init__(self, spec, rng, dtype, skip_state):
        super().__init__(spec, rng, dtype, skip_state)
        g = spec.geometry
        k = g["kernel"]
        self.w = Param("w", _uniform_init(rng, (g["out_ch"], g["in_ch"], k, k),
                                          g["in_ch"] * k * k, dtype))
        self.b = Param("b", np.zeros(g["out_ch"], dtype=dtype))
        self.params = [self.w, self.b]

    def out_shape(self, in_shape):
        g = self.spec.geometry
        if len(in_shape) != 3 or in_shape[0] != g["in_ch"]:
            raise ShapeError(f"conv2d expects ({g['in_ch']}, H, W) input, got {in_shape}")
        oh, ow = _pool_geometry(in_shape[1], in_shape[2], g["kernel"], g["stride"], g["pad"])
        if oh <= 0 or ow <= 0:
            raise ShapeError(f"conv2d geometry {g} yields empty output for input {in_shape}")
        return (g["out_ch"], oh, ow)

    def forward(self, x, train=False, rng=None):
        g = self.spec.geometry
        k, s, p = g["kernel"], g["stride"], g["pad"]
        b = x.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        w2 = self.w.value.reshape(g["out_ch"], -1)
        # an eval block holds at least two samples (or the whole batch): one
        # sample's contiguous columns give BLAS another row stride than the
        # whole batch's, on which a one-channel layer's gemv rounds otherwise
        budget = EVAL_COLS_BYTES // (w2.shape[1] * oh * ow * x.itemsize)
        step = b if train else min(b, max(2, budget))
        out = np.empty((b, g["out_ch"], oh * ow), dtype=np.result_type(w2, x))
        buf = np.zeros((x.shape[1], k, k, step, oh, ow), dtype=x.dtype)
        for lo in range(0, b, step):
            cols = _im2col(x[lo:lo + step], k, s, p, oh, ow, buf)
            # one GEMM per sample: a single GEMM over all columns would need a
            # transposing copy of its result, which costs more than the GEMM
            # on wide few-channel layers
            np.matmul(w2, cols.transpose(1, 0, 2), out=out[lo:lo + step])
        out += self.b.value[:, None]
        # the columns are k*k times the input: only a train forward keeps them
        self._cache = (x.shape, cols.reshape(len(cols), -1)) if train else None
        return out.reshape(b, g["out_ch"], oh, ow)

    def backward(self, dout, input_grad=True):
        g = self.spec.geometry
        x_shape, cols = self._cache
        dout2 = dout.transpose(1, 0, 2, 3).reshape(g["out_ch"], -1)
        self.w.grad = (dout2 @ cols.T).reshape(self.w.value.shape)
        self.b.grad = dout.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        dcols = self.w.value.reshape(g["out_ch"], -1).T @ dout2
        return _col2im(dcols, x_shape, g["kernel"], g["stride"], g["pad"])


class _Pool(Layer):
    """Pooling reduces the k*k strided window taps of a padded copy of the
    input one at a time, in (i, j) row-major order, with no window tensor.

    Overlapping windows (stride < window) work channels-last: the copy is
    (H + 2p, W + 2p, B, C), so every tap pass runs over contiguous B*C
    rows, and the k*k passes repay the transposes in and out.  Other
    windows work in NCHW, where those transposes would cost more than the
    few taps they speed up.
    """

    pad_value = 0.0

    def out_shape(self, in_shape):
        g = self.spec.geometry
        if len(in_shape) != 3:
            raise ShapeError(f"{self.kind} expects (C, H, W) input, got {in_shape}")
        oh, ow = _pool_geometry(in_shape[1], in_shape[2], g["window"], g["stride"], g["pad"])
        if oh <= 0 or ow <= 0:
            raise ShapeError(f"{self.kind} geometry {g} yields empty output for input {in_shape}")
        return (in_shape[0], oh, ow)

    @property
    def _channels_last(self):
        g = self.spec.geometry
        return g["stride"] < g["window"]

    def _layout(self, a):
        """NCHW <-> the working layout (the transpose is its own inverse)."""
        return a.transpose(2, 3, 0, 1) if self._channels_last else a

    def _hw(self, rows, cols):
        """Index of a spatial window in the working layout."""
        return (rows, cols) if self._channels_last else (Ellipsis, rows, cols)

    def _padded(self, x):
        """The working-layout copy of an NCHW input, padded with ``pad_value``."""
        self.out_shape(x.shape[1:])  # raises ShapeError on an empty output
        p = self.spec.geometry["pad"]
        if not (p or self._channels_last):
            return x
        b, c, h, w = x.shape
        hp, wp = h + 2 * p, w + 2 * p
        shape = (hp, wp, b, c) if self._channels_last else (b, c, hp, wp)
        xp = np.full(shape, self.pad_value, dtype=x.dtype)
        xp[self._hw(slice(p, p + h), slice(p, p + w))] = self._layout(x)
        return xp

    def _taps(self, xp):
        """Strided views of a padded working-layout array, one per window
        offset (i, j) in row-major order; view (i, j) holds element (i, j)
        of every window."""
        g = self.spec.geometry
        k, s = g["window"], g["stride"]
        hp, wp = self._layout(xp).shape[2:]
        oh = (hp - k) // s + 1
        ow = (wp - k) // s + 1
        return [xp[self._hw(slice(i, i + s * oh, s), slice(j, j + s * ow, s))]
                for i in range(k) for j in range(k)]

    def _nchw(self, a, p):
        """The NCHW copy of a working-layout array, cropped by ``p``."""
        hp, wp = self._layout(a).shape[2:]
        inner = a[self._hw(slice(p, hp - p), slice(p, wp - p))]
        return np.ascontiguousarray(self._layout(inner))


class MaxPool2d(_Pool):
    kind = "maxpool"
    pad_value = -np.inf

    def forward(self, x, train=False, rng=None):
        xp = self._padded(x)
        taps = self._taps(xp)
        out = taps[0].copy()
        for t in taps[1:]:
            # np.maximum returns its second operand on a tie (+0.0 vs -0.0),
            # so the running max keeps the first maximal value, as argmax did
            np.maximum(t, out, out=out)
        self._cache = (xp, out) if train else None
        return self._nchw(out, 0)

    def backward(self, dout):
        """Route each gradient to the first maximal window position."""
        xp, out = self._cache
        bits = np.ascontiguousarray(self._layout(dout)).view(f"u{dout.itemsize}")
        dxp = np.zeros(xp.shape, dtype=dout.dtype)
        free = np.ones(out.shape, dtype=bool)
        for t, dt in zip(self._taps(xp), self._taps(dxp)):
            hit = t == out
            hit &= free
            free ^= hit
            # the gradient on a hit, +0.0 elsewhere, as np.where(hit, dout, 0)
            # gives it but without a branch per element: the bit pattern
            # times 0 or 1
            dt += np.multiply(bits, hit, dtype=bits.dtype).view(dout.dtype)
        return self._nchw(dxp, self.spec.geometry["pad"])


class AvgPool2d(_Pool):
    kind = "avgpool"

    def forward(self, x, train=False, rng=None):
        xp = self._padded(x)
        taps = self._taps(xp)
        out = taps[0] + 0.0  # sum from +0.0 like np.mean: an all -0.0 window gives +0.0
        for t in taps[1:]:
            out += t
        out /= len(taps)
        self._cache = xp.shape if train else None
        return self._nchw(out, 0)

    def backward(self, dout):
        dxp = np.zeros(self._cache, dtype=dout.dtype)
        taps = self._taps(dxp)
        share = np.ascontiguousarray(self._layout(dout)) / len(taps)
        for dt in taps:
            dt += share
        return self._nchw(dxp, self.spec.geometry["pad"])


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
        slope = self.spec.geometry.get("slope", 0.1)
        self._pos = x > 0 if train else None
        # same bits as np.where(x > 0, x, slope * x), since 0 < slope < 1
        return np.maximum(x, slope * x)

    def backward(self, dout):
        """The bits of np.where(pos, dout, slope * dout), selected without a
        branch per element: (low ^ dout) * pos ^ low on unsigned views."""
        low = self.spec.geometry.get("slope", 0.1) * dout
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
    """Remember the current activation for a later additive skip join."""

    kind = "skip_save"

    def forward(self, x, train=False, rng=None):
        self._skip_state[self.spec.geometry["tag"]] = x
        return x

    def backward(self, dout):
        extra = self._skip_state.pop("d_" + self.spec.geometry["tag"], None)
        if extra is not None:
            return dout + extra
        return dout


class SkipAdd(Layer):
    """Add the remembered activation back in (identity shortcut)."""

    kind = "skip_add"

    def forward(self, x, train=False, rng=None):
        # pop: backward never reads the branch, so it dies with this forward
        saved = self._skip_state.pop(self.spec.geometry["tag"], None)
        if saved is None:
            raise ShapeError(f"skip_add {self.spec.geometry['tag']!r} has no saved branch")
        if saved.shape != x.shape:
            raise ShapeError(
                f"skip_add {self.spec.geometry['tag']!r}: branch shape {saved.shape} != {x.shape}"
            )
        return x + saved

    def backward(self, dout):
        self._skip_state["d_" + self.spec.geometry["tag"]] = dout
        return dout


_LAYER_CLASSES = {cls.kind: cls for cls in (
    Dense, Conv2d, MaxPool2d, AvgPool2d, ReLU, LeakyReLU, Dropout, Flatten, SkipSave, SkipAdd)}
LAYER_KINDS = tuple(_LAYER_CLASSES)


def build_layer(spec, rng, dtype, skip_state):
    return _LAYER_CLASSES[spec.kind](spec, rng, dtype, skip_state)
