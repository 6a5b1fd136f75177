"""Forward-pass examples, conv/pool naive-loop oracles, Param masking and
finite-difference gradient checks for every layer kind."""

import math
import tracemalloc

import numpy as np
import pytest

from jointprune import layers as L
from jointprune import sparsity
from jointprune.errors import ShapeError
from jointprune.models import get_preset
from jointprune.network import Network, loss_and_backward
from jointprune.sparsity import WinnerRateConfig

from oracles import (
    avgpool_backward_naive,
    avgpool_backward_taps,
    avgpool_naive,
    avgpool_taps,
    central_diff_grad,
    conv2d_naive,
    conv2d_padded_col2im,
    conv2d_padded_im2col,
    maxpool_backward_naive,
    maxpool_backward_taps,
    maxpool_naive,
    maxpool_taps,
)


def test_fc_identity():
    net = Network([L.flatten(), L.fc(6, 6)], (6,) if False else (1, 2, 3), dtype=np.float64)
    net.layers[1].w.value = np.eye(6)
    net.layers[1].b.value = np.zeros(6)
    v = np.arange(6, dtype=np.float64).reshape(1, 1, 2, 3)
    out = net.forward(v).logits
    assert np.array_equal(out, v.reshape(1, 6))


def _fc_feeds(preset):
    """(layer index, n_in, input density) of each fc layer of a preset: the
    winner rate of the masked layer whose output reaches it, else 1."""
    rate, out = 1.0, []
    for i, spec in enumerate(preset.specs):
        if spec.kind == "fc":
            out.append((i, spec.geometry["n_in"], rate))
        if spec.kind in ("fc", "conv2d"):
            rate = 1.0
        rate = preset.reference_rates.get(i, rate)
    return out


def _sparse_row(rng, n, nnz):
    x = np.zeros((1, n), np.float32)
    x[0, rng.choice(n, nnz, replace=False)] = rng.standard_normal(nnz) + 3.0
    return x


def test_fc_gathers_only_large_sparse_single_samples(rng):
    """A batch-1 eval forward gathers the weight rows of its nonzero inputs
    only on lenet4's and convnet5's fc1, at their reference rates and at a
    quarter of the inputs nonzero, never with more; it then skips a NaN
    weight in a row whose input is zero, which the dense product spreads to
    its output column.  Its output is within 1e-5 x (1 + max |out|) of the
    dense one, and an all-zero input gives the bias.  Train forwards,
    batches of two and every other preset fc keep the bytes of
    ``x @ w + b``."""
    gathered = set()
    for name in ("mlp3", "lenet4", "convnet5", "leaky6"):
        preset = get_preset(name)
        net = preset.build()
        for i, n_in, rate in _fc_feeds(preset):
            layer = net.layers[i]
            w, b = layer.w.value, rng.standard_normal(len(layer.b.value)).astype(np.float32)
            layer.b.value = b
            for label, count in (("reference", min(n_in - 1, math.ceil(rate * n_in))),
                                 ("quarter", n_in // 4), ("over", n_in // 4 + 1)):
                x = _sparse_row(rng, n_in, count)
                dense = x @ w + b
                assert np.abs(layer.forward(x) - dense).max() <= 1e-5 * (1 + np.abs(dense).max())
                row = int(np.flatnonzero(x[0] == 0)[0])
                w[row, 0] = np.nan
                out = layer.forward(x)
                if np.isfinite(out).all():
                    gathered.add((name, i, label))
                else:
                    assert out.tobytes() == (x @ w + b).tobytes(), (name, i, label)
                pair = np.vstack([x, x])
                for xs, train in ((x, True), (pair, False), (pair, True)):
                    assert layer.forward(xs, train=train).tobytes() == (xs @ w + b).tobytes()
                w[row, 0] = 0.0
            if (name, i, "quarter") in gathered:
                assert np.array_equal(layer.forward(np.zeros((1, n_in), np.float32)), b[None])
    assert gathered == {(name, 7, label) for name in ("lenet4", "convnet5")
                        for label in ("reference", "quarter")}


def test_leaky_relu_values():
    layer = L.build_layer(L.leaky_relu(0.1), None, np.float64)
    out = layer.forward(np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [[-0.1, 2.0]])


def test_relu_values():
    layer = L.build_layer(L.relu(), None, np.float64)
    out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 0.0, 2.0]])


def test_conv_constant_input():
    net = Network([L.conv2d(1, 1, 3, stride=1, pad=0)], (1, 5, 5), dtype=np.float64)
    net.layers[0].w.value = np.ones((1, 1, 3, 3))
    net.layers[0].b.value = np.zeros(1)
    out = net.forward(np.ones((1, 1, 5, 5))).logits
    assert out.shape == (1, 1, 3, 3)
    assert np.array_equal(out, np.full((1, 1, 3, 3), 9.0))


def test_conv_random_matches_naive(rng):
    for _ in range(10):
        cin, cout = rng.integers(1, 4, size=2)
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        h = int(rng.integers(k + 1, 9))
        net = Network([L.conv2d(int(cin), int(cout), k, stride=stride, pad=pad)],
                      (int(cin), h, h), dtype=np.float64)
        x = rng.standard_normal((2, int(cin), h, h))
        out = net.forward(x).logits
        ref = conv2d_naive(x, net.layers[0].w.value, net.layers[0].b.value, stride, pad)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-13)


def test_conv_and_pool_match_naive_100_geometries(rng):
    """Optimized kernels vs nested-loop reference on random geometries."""
    for trial in range(100):
        kind = trial % 3
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        c = int(rng.integers(1, 4))
        h = int(rng.integers(max(2, k + 1), 10))
        x = rng.standard_normal((2, c, h, h))
        if kind == 0:
            cout = int(rng.integers(1, 4))
            net = Network([L.conv2d(c, cout, k, stride=stride, pad=pad)], (c, h, h),
                          dtype=np.float64)
            ref = conv2d_naive(x, net.layers[0].w.value, net.layers[0].b.value, stride, pad)
        elif kind == 1:
            net = Network([L.maxpool(k, stride, pad=pad)], (c, h, h), dtype=np.float64)
            ref = maxpool_naive(x, k, stride, pad)
        else:
            net = Network([L.avgpool(k, stride, pad=pad)], (c, h, h), dtype=np.float64)
            ref = avgpool_naive(x, k, stride, pad)
        out = net.forward(x).logits
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-13), f"trial {trial}"


def test_pool_backward_matches_naive(rng):
    """Integer inputs tie inside windows: max routes each gradient to the
    first maximal element.  Integer gradients (times k*k for avg) keep every
    sum exact, so any accumulation order gives the same bits."""
    for trial in range(60):
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        c = int(rng.integers(1, 3))
        h = int(rng.integers(k + 1, 9))
        x = rng.integers(-2, 3, size=(2, c, h, h)).astype(np.float64)
        for spec, fwd, bwd, scale in ((L.maxpool, maxpool_naive, maxpool_backward_naive, 1),
                                      (L.avgpool, avgpool_naive, avgpool_backward_naive, k * k)):
            layer = L.build_layer(spec(k, stride, pad), None, np.float64)
            out = layer.forward(x, train=True)
            ref = fwd(x, k, stride, pad)
            assert np.array_equal(out, ref), f"trial {trial} {spec.__name__}"
            dout = rng.integers(-3, 4, size=out.shape).astype(np.float64) * scale
            dx = layer.backward(dout)
            assert np.array_equal(dx, bwd(x, dout, k, stride, pad)), f"trial {trial} {spec.__name__}"


def _special(rng, shape, dtype):
    """Normals with integer ties, +-0.0, NaN and +-inf mixed in."""
    x = rng.standard_normal(shape)
    u = rng.random(shape)
    x[u < 0.2] = np.round(x[u < 0.2])
    for lo, value in ((0.2, 0.0), (0.25, -0.0), (0.3, np.nan), (0.32, np.inf), (0.34, -np.inf)):
        x[(u >= lo) & (u < lo + 0.02 + 0.03 * (value == 0))] = value
    return x.astype(dtype)


def _same_bits(a, b):
    """Same dtype, shape and bytes, except that where both hold a NaN its
    sign and payload may differ: numpy's contiguous and strided loops do
    not promise which NaN an operation returns."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0, a).tobytes() == np.where(nan, 0, b).tobytes())


def _has_pad_only_tap(h, w, k, s, p):
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    rows = [any(0 <= y * s + i - p < h for y in range(oh)) for i in range(k)]
    cols = [any(0 <= x * s + j - p < w for x in range(ow)) for j in range(k)]
    return not (all(rows) and all(cols))


def _conv_geometries(rng, n, k_max=5, c_max=4, hw_max=11):
    """(b, c, h, w, cout, k, stride, pad): three fixed cases (one channel,
    stride 3 and two of three row taps on padding only; stride 2 with
    pad > k/2), then random ones with pad up to k + 1."""
    yield from [(2, 1, 1, 1, 2, 3, 3, 2), (3, 3, 7, 5, 4, 5, 2, 3), (2, 1, 6, 6, 3, 3, 1, 1)]
    while n > 3:
        k = int(rng.integers(1, k_max + 1))
        s, p = int(rng.integers(1, 4)), int(rng.integers(0, k + 2))
        h, w = (int(v) for v in rng.integers(1, hw_max + 1, size=2))
        if h + 2 * p < k or w + 2 * p < k:
            continue
        n -= 1
        yield (int(rng.integers(1, 4)), int(rng.integers(1, c_max + 1)), h, w,
               int(rng.integers(1, 5)), k, s, p)


def test_conv_matches_padded_im2col_bytewise(rng):
    """Forward and input gradient equal the padded-im2col oracle byte for
    byte at f32 and f64, NaN, inf and signed zeros included: the clipped
    window copies and col2im agree with np.pad plus full windows."""
    seen = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for trial, (b, c, h, w, cout, k, s, p) in enumerate(_conv_geometries(rng, 150)):
            seen |= {("stride>1", s > 1), ("pad>=k/2", 2 * p >= k), ("one channel", c == 1),
                     ("pad-only tap", _has_pad_only_tap(h, w, k, s, p))}
            for dtype in (np.float32, np.float64):
                layer = L.build_layer(L.conv2d(c, cout, k, s, p), np.random.default_rng(trial),
                                      dtype)
                layer.b.value = rng.standard_normal(cout).astype(dtype)
                x = _special(rng, (b, c, h, w), dtype)
                out = layer.forward(x, train=True)
                ref = conv2d_padded_im2col(x, layer.w.value, layer.b.value, s, p)
                assert _same_bits(out, ref), (trial, dtype)
                dout = _special(rng, out.shape, dtype)
                dx = layer.backward(dout)
                ref = conv2d_padded_col2im(x.shape, layer.w.value, dout, s, p)
                assert _same_bits(dx, ref), (trial, dtype)
    assert {case for case, hit in seen if hit} == {
        "stride>1", "pad>=k/2", "one channel", "pad-only tap"}


def _counted(monkeypatch, name):
    """Wrap ``layers.<name>`` so that its calls are counted."""
    calls = []
    fn = getattr(L, name)
    monkeypatch.setattr(L, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def test_eval_conv_blocks_match_train_forward_bytewise(rng, monkeypatch):
    """An eval forward that streams blocks of output positions through a
    bounded column buffer gives the bytes of the train forward and of the
    padded-im2col oracle, at f32 and f64 with NaN, inf and signed zeros:
    budgets of two and three samples, blocks of two and three output rows
    with ragged remainders of one and two, blocks of two positions inside a
    row with and without a ragged one, GEMM units of one row and of one
    position, and a one-byte budget (which still lowers one unit at a
    time, all of a single sample's output).  On the preset conv layers at batch 100 every eval forward takes
    several blocks and gives the train forward's bytes too."""
    blocks = _counted(monkeypatch, "_im2col")
    seen = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for trial, (_, c, h, w, cout, k, s, p) in enumerate(_conv_geometries(rng, 60)):
            b = int(rng.integers(3, 8))
            for dtype in (np.float32, np.float64):
                layer = L.build_layer(L.conv2d(c, cout, k, s, p), np.random.default_rng(trial),
                                      dtype)
                layer.b.value = rng.standard_normal(cout).astype(dtype)
                x = _special(rng, (b, c, h, w), dtype)
                ref = layer.forward(x, train=True)
                assert _same_bits(ref, conv2d_padded_im2col(x, layer.w.value, layer.b.value, s, p))
                oh, ow = ref.shape[2:]
                unit = oh * ow if b == 1 else ow if b < ow or k * k * ow <= h * w else 1
                position_bytes = c * k * k * b * x.itemsize
                sample_bytes = c * k * k * oh * ow * x.itemsize
                for budget in (1, 2 * sample_bytes, 3 * sample_bytes + 1, 2 * position_bytes,
                               2 * ow * position_bytes, 3 * ow * position_bytes + 1):
                    monkeypatch.setattr(L, "EVAL_COLS_BYTES", budget)
                    del blocks[:]
                    out = layer.forward(x)
                    per = max(unit, budget // position_bytes)
                    ny, nx = (min(oh, per // ow), ow) if per >= ow else (1, per)
                    assert len(blocks) == -(-oh // ny) * -(-ow // nx), (trial, budget)
                    assert _same_bits(out, ref), (trial, dtype, budget)
                    seen.add(("rows", ny, oh % ny) if nx == ow else ("part row", nx, ow % nx))
                    seen.add(("row unit", unit == ow))
                monkeypatch.setattr(L, "EVAL_COLS_BYTES", 1)
                del blocks[:]
                out = layer.forward(x[:1])
                assert len(blocks) == 1, trial  # a single sample is one unit
                assert _same_bits(out, layer.forward(x[:1], train=True)), (trial, dtype)
    assert seen >= {("rows", 2, 0), ("rows", 2, 1), ("rows", 3, 0), ("rows", 3, 1),
                    ("rows", 3, 2), ("part row", 2, 0), ("part row", 2, 1),
                    ("row unit", True), ("row unit", False)}
    monkeypatch.undo()
    multi = 0
    for name in ("lenet4", "convnet5", "leaky6"):
        net = get_preset(name).build()
        shapes = [net.input_shape] + net.layer_shapes
        for layer, in_shape in zip(net.layers, shapes):
            if layer.kind == "conv2d":
                x = rng.standard_normal((100,) + in_shape).astype(np.float32)
                blocks = _counted(monkeypatch, "_im2col")
                out = layer.forward(x)
                multi += len(blocks) > 1
                monkeypatch.undo()
                assert _same_bits(out, layer.forward(x, train=True)), (name, in_shape)
    assert multi == 9


def test_eval_conv_whole_batch_in_one_block_is_one_lowering(rng):
    """A batch whose columns fit the budget (batch-1 serving, for one)
    takes the single-lowering path; a train forward always does."""
    layer = L.build_layer(L.conv2d(20, 50, 5, 1, 2), rng, np.float32)
    for b, train in ((1, False), (2, False), (50, True)):
        x = rng.standard_normal((b, 20, 14, 14)).astype(np.float32)
        with pytest.MonkeyPatch.context() as mp:
            blocks = _counted(mp, "_im2col")
            layer.forward(x, train=train)
        assert len(blocks) == 1, (b, train)


def test_single_sample_im2col_matches_the_tap_path_bytewise(rng):
    """A single sample's columns, filled in one strided copy, equal the
    columns the tap path lowers for the same sample inside a batch of two,
    byte for byte: f32, f64 and int64, NaN, +-inf and +-0.0, batch-innermost
    and NCHW inputs, whole outputs and output windows, into a fresh buffer
    or one full of garbage."""
    for trial, (_, c, h, w, _, k, s, p) in enumerate(_conv_geometries(rng, 80)):
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        y0, y1 = sorted(int(v) for v in rng.integers(0, oh, size=2))
        x0, x1 = sorted(int(v) for v in rng.integers(0, ow, size=2))
        windows = [(range(oh), range(ow)), (range(y0, y1 + 1), range(x0, x1 + 1))]
        for dtype in (np.float32, np.float64, np.int64):
            if dtype is np.int64:
                x = rng.integers(-3, 4, size=(2, c, h, w)).astype(np.int64)
            else:
                x = _special(rng, (2, c, h, w), dtype)
            for x4 in (x.transpose(1, 2, 3, 0), np.ascontiguousarray(x.transpose(1, 2, 3, 0))):
                for ys, xs in windows:
                    n = c * k * k * len(ys) * len(xs)
                    pair = L._im2col(x4, k, s, p, ys, xs, np.empty(2 * n, dtype))
                    pair = pair.reshape(c * k * k, -1, 2)
                    for buf in (np.empty(n, dtype), np.full(n, 7, dtype)):
                        one = L._im2col(x4[..., :1], k, s, p, ys, xs, buf)
                        assert one.shape == pair.shape[:2], (trial, dtype)
                        assert one.tobytes() == np.ascontiguousarray(pair[..., 0]).tobytes(), (
                            trial, dtype, ys, xs)


def test_single_sample_conv_forward_matches_padded_im2col_bytewise(rng):
    """A batch-1 conv forward, eval and train, NCHW and batch-innermost
    input, gives the padded-im2col oracle's bytes at f32 and f64 with NaN,
    +-inf and +-0.0 on the random geometries."""
    with np.errstate(invalid="ignore", over="ignore"):
        for trial, (_, c, h, w, cout, k, s, p) in enumerate(_conv_geometries(rng, 120)):
            for dtype in (np.float32, np.float64):
                layer = L.build_layer(L.conv2d(c, cout, k, s, p), np.random.default_rng(trial),
                                      dtype)
                layer.b.value = rng.standard_normal(cout).astype(dtype)
                x = _special(rng, (1, c, h, w), dtype)
                ref = conv2d_padded_im2col(x, layer.w.value, layer.b.value, s, p)
                inner = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
                for xin in (x, inner):
                    for train in (False, True):
                        assert _same_bits(layer.forward(xin, train=train), ref), (trial, dtype)


def test_eval_conv_peak_memory_is_bounded(rng):
    """A batch-500 eval forward of lenet4's conv2 (20->50, 5x5, pad 2,
    14x14 input) allocates the output and at most about one column budget,
    not the 196 MB of whole-batch columns."""
    layer = L.build_layer(L.conv2d(20, 50, 5, 1, 2), rng, np.float32)
    x = rng.standard_normal((500, 20, 14, 14)).astype(np.float32)
    tracemalloc.start()
    try:
        out = layer.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * L.EVAL_COLS_BYTES, peak


def test_conv_backward_frees_its_columns_before_their_gradient(rng):
    """A batch-100 train backward of lenet4's conv2 drops the im2col columns
    of its forward (39 MB) once ``dw`` is made, before it makes the column
    gradient of the same size: it never holds both."""
    layer = L.build_layer(L.conv2d(20, 50, 5, 1, 2), rng, np.float32)
    x = rng.standard_normal((100, 20, 14, 14)).astype(np.float32)
    tracemalloc.start()
    try:
        dout = np.ones_like(layer.forward(x, train=True))
        both = 2 * layer._cache[1].nbytes  # the columns, and their gradient
        tracemalloc.reset_peak()
        layer.backward(dout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert layer._cache is None
    assert peak < both, (peak, both)


def test_conv_weight_grad_matches_naive_finite_differences(rng):
    """dw sums the batch inside one GEMM; it must match central differences
    of the nested-loop convolution within the gradient-check tolerance."""
    for trial, (b, c, h, w, cout, k, s, p) in enumerate(
            _conv_geometries(rng, 25, k_max=3, c_max=2, hw_max=6)):
        layer = L.build_layer(L.conv2d(c, cout, k, s, p), np.random.default_rng(trial),
                              np.float64)
        x = rng.standard_normal((b, c, h, w))
        g = rng.standard_normal(layer.forward(x, train=True).shape)
        layer.backward(g)
        indices = list(np.ndindex(layer.w.value.shape))
        if len(indices) > 12:
            indices = [indices[i] for i in rng.choice(len(indices), 12, replace=False)]

        def f():
            return float((conv2d_naive(x, layer.w.value, layer.b.value, s, p) * g).sum())

        fd = central_diff_grad(f, layer.w, indices)
        got = np.array([layer.w.grad[i] for i in indices])
        assert np.max(np.abs(got - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-4, trial


def _pools_match_tap_oracle(rng, trials, channels=(1, 5), blocked=None):
    """Max and avg pool forward and backward against the NCHW padded-tap
    oracles, byte for byte, on ``trials`` random geometries at f32 and f64
    with ties, NaN, inf and signed zeros in the input and in the gradient;
    returns the set of layouts seen (overlapping windows or not).  With
    ``blocked`` (a monkeypatch), each case's channel blocks hold a random
    1 to C - 1 of its C channels, so that a case of two or more channels
    and samples spans several blocks, the last one maybe ragged."""
    layouts = set()
    with np.errstate(invalid="ignore"):
        for trial in range(trials):
            k = int(rng.integers(1, 5))
            s, p = int(rng.integers(1, 5)), int(rng.integers(0, k + 1))
            h, w = (int(v) for v in rng.integers(1, 11, size=2))
            if h + 2 * p < k or w + 2 * p < k:
                continue
            layouts.add(s < k)
            shape = (int(rng.integers(1, 4)), int(rng.integers(*channels)), h, w)
            if blocked is not None:
                per = int(rng.integers(1, max(2, shape[1])))
            for dtype in (np.float32, np.float64):
                if blocked is not None:
                    channel_bytes = (h + 2 * p) * (w + 2 * p) * shape[0] * np.dtype(dtype).itemsize
                    blocked.setattr(L, "BLOCK_BYTES", per * channel_bytes)
                for spec, fwd, bwd in ((L.maxpool, maxpool_taps, maxpool_backward_taps),
                                       (L.avgpool, avgpool_taps, avgpool_backward_taps)):
                    layer = L.build_layer(spec(k, s, p), None, dtype)
                    x = _special(rng, shape, dtype)
                    out = layer.forward(x, train=True)
                    assert _same_bits(out, fwd(x, k, s, p)), trial
                    dout = _special(rng, out.shape, dtype)
                    dx = layer.backward(dout)
                    assert _same_bits(dx, bwd(x, dout, k, s, p)), trial
    return layouts


def test_pool_kernels_match_tap_oracle_bytewise(rng):
    """Max and avg pool forward and backward equal the NCHW padded-tap
    oracles byte for byte at f32 and f64, for overlapping (stride < window)
    and other windows, with ties, NaN, inf and signed zeros in the input and
    in the gradient."""
    assert _pools_match_tap_oracle(rng, 160) == {True, False}


def _recorded_blocks(monkeypatch):
    """Wrap ``layers._channel_blocks`` so that each call records its
    array's channel count, batch size and channel block sizes."""
    seen = []
    fn = L._channel_blocks

    def record(xp):
        blocks = fn(xp)
        seen.append((xp.shape[0], xp.shape[-1], [len(range(xp.shape[0])[b]) for b in blocks]))
        return blocks

    monkeypatch.setattr(L, "_channel_blocks", record)
    return seen


def test_pool_channel_blocks_match_tap_oracle_bytewise(rng, monkeypatch):
    """The tap-oracle comparison above with the block budget cut to 1 to
    C - 1 channels of each case: every pass of two or more channels and
    samples runs several channel blocks, ragged ones among them, and the
    bytes do not change.  A single sample is one block whatever the
    budget."""
    seen = _recorded_blocks(monkeypatch)
    assert _pools_match_tap_oracle(rng, 80, channels=(1, 7), blocked=monkeypatch) == {True, False}
    for c, b, sizes in seen:
        assert len(sizes) == (1 if b == 1 else c // sizes[0] + (c % sizes[0] > 0)), (c, b)
        assert (len(sizes) > 1) == (c > 1 and b > 1), (c, b, sizes)
    assert any(len(sizes) > 2 for _, _, sizes in seen)
    assert any(sizes[-1] < sizes[0] for _, _, sizes in seen)


def test_convnet5_sized_pool_spans_blocks_at_the_real_budget(rng, monkeypatch):
    """convnet5's 3x3/s1/p1 pools at batch 100 over 64x12x12 f32 inputs,
    forward and backward, equal the NCHW tap oracles byte for byte at the
    real block budget, which splits such an input into many blocks."""
    seen = _recorded_blocks(monkeypatch)
    x = _special(rng, (100, 64, 12, 12), np.float32)
    dout = _special(rng, x.shape, np.float32)
    with np.errstate(invalid="ignore"):
        for spec, fwd, bwd in ((L.maxpool, maxpool_taps, maxpool_backward_taps),
                               (L.avgpool, avgpool_taps, avgpool_backward_taps)):
            layer = L.build_layer(spec(3, 1, 1), None, np.float32)
            assert _same_bits(layer.forward(x, train=True), fwd(x, 3, 1, 1)), spec
            assert _same_bits(layer.backward(dout), bwd(x, dout, 3, 1, 1)), spec
    assert len(seen) == 4 and all(len(sizes) > 8 for _, _, sizes in seen)


def _batch_innermost(a):
    """The values of ``a`` as a view whose batch axis is innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def test_batch_innermost_view_gives_the_bytes_of_nchw(rng):
    """Every layer kind that takes a 4-D input, a network forward and
    backward (with fc after flatten, whose 2-D output is C-order), and both
    winner selections give the same bytes for an NCHW-contiguous input and
    for the same values as a batch-innermost view, at f32 and f64 with NaN,
    inf, signed zeros and (in the winner selections) rows with surplus
    ties."""
    kinds = [(L.conv2d(3, 4, 3, 2, 1), (3, 7, 6)), (L.maxpool(3, 1, 1), (3, 5, 6)),
             (L.maxpool(2, 2), (2, 6, 6)), (L.avgpool(3, 1, 1), (3, 5, 6)),
             (L.avgpool(2, 2), (2, 6, 6)), (L.relu(), (3, 4, 5)), (L.leaky_relu(0.1), (3, 4, 5)),
             (L.dropout(0.4), (3, 4, 5)), (L.flatten(), (3, 4, 5))]
    specs = [L.leaky_relu(0.1), L.conv2d(2, 4, 3, 1, 1), L.relu(), L.skip_save(),
             L.maxpool(3, 1, 1), L.leaky_relu(0.2), L.skip_add(), L.avgpool(2, 2),
             L.flatten(), L.fc(36, 5)]
    tied = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for dtype in (np.float32, np.float64):
            for spec, shape in kinds:
                x = _special(rng, (20,) + shape, dtype)
                outs = []
                for xs in (x, _batch_innermost(x)):
                    layer = L.build_layer(spec, np.random.default_rng(3), dtype)
                    out = layer.forward(xs, train=True, rng=np.random.default_rng(4))
                    dout = _special(np.random.default_rng(5), out.shape, dtype)
                    dx = layer.backward(dout if xs is x else _batch_innermost(dout))
                    outs.append([out, dx] + [p.grad for p in layer.params])
                for a, b in zip(*outs):
                    assert _same_bits(a, b), (spec.kind, dtype)
            net = Network(specs, (2, 6, 6), dtype=dtype, seed=1)
            net.set_mask_cfg(WinnerRateConfig(per_layer_rate={0: 0.5, 2: 0.3, 6: 0.4}))
            x = rng.integers(-2, 3, size=(6, 2, 6, 6)).astype(dtype)
            outs = []
            for xs in (x, _batch_innermost(x)):
                res = net.forward(xs, mode="train")
                net.backward(np.ones_like(res.logits))
                outs.append(res.post_mask + [p.grad.copy() for p in net.params()])
            for a, b in zip(*outs):
                assert _same_bits(a, b), dtype
            for shape in ((7, 3, 4, 5), (7, 60)):
                acts = _special(rng, shape, dtype)
                acts[:3] = rng.integers(-2, 3, size=(3,) + shape[1:])
                for rate in (0.1, 0.3, 0.5):
                    for select in (lambda a: sparsity.select_winners_batch(a, rate),
                                   lambda a: sparsity.predicted_mask_batch(a, rate, 0.25, 1)):
                        masks = [select(a) for a in (acts, _batch_innermost(acts))]
                        assert masks[0].tobytes() == masks[1].tobytes(), (shape, rate)
                    k = sparsity.winner_count(rate, acts[0].size)
                    mag = np.abs(acts.reshape(7, -1))
                    kth = -np.sort(-np.where(np.isnan(mag), np.inf, mag), axis=1)[:, k - 1:k]
                    tied += int(((mag >= kth).sum(axis=1) > k).sum())
    assert tied > 0


def test_leaky_relu_matches_where_form_bitwise(rng):
    """Forward and the branch-free backward give the bytes of the np.where
    forms, NaN and inf in the input and in the gradient included."""
    x = np.concatenate([rng.standard_normal(200), [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                                   np.nan, 1.0, -1.0, 2.0, -2.0, 3.0]])
    dout = np.concatenate([rng.standard_normal(200), [-0.0, 0.0, 1.0, -1.0, -0.0, 2.0, 1.0,
                                                      np.nan, np.nan, np.inf, -np.inf, -np.inf]])
    batch = (8, 4, 6, 6)
    cases = [(x, dout), (rng.standard_normal(batch), _special(rng, batch, np.float64)),
             (_special(rng, batch, np.float64), _special(rng, batch, np.float64))]
    with np.errstate(invalid="ignore"):
        for dtype in (np.float32, np.float64):
            for xs, ds in cases:
                xs, ds = xs.astype(dtype), ds.astype(dtype)
                for slope in (0.1, 0.3, 0.99):
                    layer = L.build_layer(L.leaky_relu(slope), None, dtype)
                    out = layer.forward(xs, train=True)
                    assert out.tobytes() == np.where(xs > 0, xs, slope * xs).tobytes()
                    dx = layer.backward(ds)
                    assert dx.dtype == dtype and dx.shape == xs.shape
                    assert dx.tobytes() == np.where(xs > 0, ds, slope * ds).tobytes()


def test_forward_determinism(rng):
    net = Network([L.conv2d(1, 4, 3, 1, 1), L.relu(), L.maxpool(2, 2),
                   L.flatten(), L.fc(64, 10)], (1, 8, 8))
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={1: 0.3}))
    x = rng.standard_normal((4, 1, 8, 8)).astype(np.float32)
    a = net.forward(x, mode="eval").logits
    b = net.forward(x, mode="eval").logits
    assert np.array_equal(a, b)


def test_mask_absorption(rng):
    """forward(w, mask m) == forward(w*m, all-ones mask)."""
    net = Network([L.flatten(), L.fc(12, 8), L.relu(), L.fc(8, 4)], (1, 3, 4),
                  dtype=np.float64)
    x = rng.standard_normal((3, 1, 3, 4))
    for _, p in net.weight_params():
        p.set_mask((rng.random(p.value.shape) > 0.4).astype(np.float64))
    masked_out = net.forward(x).logits

    net2 = Network([L.flatten(), L.fc(12, 8), L.relu(), L.fc(8, 4)], (1, 3, 4),
                   dtype=np.float64)
    for (_, p), (_, q) in zip(net.weight_params(), net2.weight_params()):
        q.value = p.value * p.mask
        q.set_mask(np.ones_like(q.value))
    for la, lb in zip(net.layers, net2.layers):
        if la.kind in ("fc", "conv2d"):
            lb.params[1].value = la.params[1].value.copy()
    assert np.array_equal(masked_out, net2.forward(x).logits)


def test_shape_error_names_layer():
    net = Network([L.flatten(), L.fc(10, 4)], (1, 2, 5))
    with pytest.raises(ShapeError, match="input shape"):
        net.forward(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="layer 1"):
        Network([L.flatten(), L.fc(11, 4)], (1, 2, 5))
    with pytest.raises(ShapeError, match=r"layer 0 \(conv2d\): .* yields empty output"):
        Network([L.conv2d(1, 2, 5)], (1, 3, 3))
    with pytest.raises(ShapeError, match=r"layer 1 \(avgpool\): .* yields empty output"):
        Network([L.relu(), L.avgpool(2, pad=0)], (1, 1, 1))


# -- Param: masking, density and the grad buffer ---------------------------


def test_param_mask_zeroes_values():
    p = L.Param("w", np.array([1.0, -2.0, 3.0, -4.0]))
    assert p.density() == 1.0
    p.set_mask(np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(p.value, [1.0, 0.0, 3.0, 0.0])
    assert p.density() == 0.5
    with pytest.raises(ShapeError, match="mask shape"):
        p.set_mask(np.ones(3))


def test_param_grad_buffer_matches():
    p = L.Param("w", np.zeros((3, 4), dtype=np.float32))
    assert p.grad.shape == (3, 4) and p.grad.dtype == np.float32
    assert np.all(p.grad == 0)


# -- gradient checks --------------------------------------------------------


def _grad_check(net, x, labels, tol=1e-4, n_sample=40, seed=0, mask_cfg=None):
    if mask_cfg is not None:
        net.set_mask_cfg(mask_cfg)
    loss_and_backward(net, x, labels, alpha=0.0)
    analytic = {id(p): p.grad.copy() for p in net.params()}
    pick = np.random.default_rng(seed)

    def f():
        res = net.forward(x, mode="train")
        from jointprune.network import softmax_cross_entropy

        return softmax_cross_entropy(res.logits, labels)[0]

    for p in net.params():
        flat_idx = np.arange(p.value.size)
        if p.value.size > n_sample:
            flat_idx = pick.choice(p.value.size, size=n_sample, replace=False)
        indices = [np.unravel_index(i, p.value.shape) for i in flat_idx]
        fd = central_diff_grad(f, p, indices)
        got = np.array([analytic[id(p)][i] for i in indices])
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(got - fd) / denom) < tol, p.name


def test_gradients_per_kind_exhaustive(rng):
    """One small net per layer kind, every parameter element checked."""
    cases = {
        "fc": [L.flatten(), L.fc(8, 5)],
        "conv2d": [L.conv2d(2, 3, 3, 1, 1), L.flatten(), L.fc(48, 5)],
        "maxpool": [L.conv2d(1, 2, 3, 1, 1), L.maxpool(2, 2), L.flatten(), L.fc(8, 5)],
        "avgpool": [L.conv2d(1, 2, 3, 1, 1), L.avgpool(2, 2), L.flatten(), L.fc(8, 5)],
        "relu": [L.flatten(), L.fc(8, 8), L.relu(), L.fc(8, 5)],
        "leaky_relu": [L.flatten(), L.fc(8, 8), L.leaky_relu(0.2), L.fc(8, 5)],
        "skip": [L.conv2d(1, 2, 3, 1, 1), L.skip_save(), L.conv2d(2, 2, 3, 1, 1),
                 L.leaky_relu(0.1), L.skip_add(), L.flatten(), L.fc(8, 5)],
    }
    for name, specs in cases.items():
        if name in ("fc", "relu", "leaky_relu"):
            shape = (1, 2, 4)
        elif name == "conv2d":
            shape = (2, 4, 4)
        else:
            shape = (1, 4, 4) if name != "skip" else (1, 2, 2)
        net = Network(specs, shape, dtype=np.float64, seed=7)
        x = rng.standard_normal((3,) + shape)
        labels = rng.integers(0, 5, size=3)
        _grad_check(net, x, labels, n_sample=10_000)


def test_gradients_50_random_instances():
    """Random mixed-kind nets, sampled parameter elements, fd rel err < 1e-4."""
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        use_conv = trial % 2 == 0
        act = L.relu if trial % 3 else (lambda: L.leaky_relu(0.1))
        if use_conv:
            c = int(rng.integers(1, 3))
            specs = [L.conv2d(c, 3, 3, 1, 1), act()]
            if trial % 4 == 0:
                specs.append(L.maxpool(2, 2))
                n_flat = 3 * 3 * 3
            elif trial % 4 == 2:
                specs.append(L.avgpool(2, 2))
                n_flat = 3 * 3 * 3
            else:
                n_flat = 3 * 6 * 6
            specs += [L.flatten(), L.fc(n_flat, 4)]
            shape = (c, 6, 6)
        else:
            specs = [L.flatten(), L.fc(12, 9), act(), L.fc(9, 4)]
            shape = (1, 3, 4)
        net = Network(specs, shape, dtype=np.float64, seed=trial)
        x = rng.standard_normal((2,) + shape)
        labels = rng.integers(0, 4, size=2)
        _grad_check(net, x, labels, n_sample=30, seed=trial)


def test_gradients_with_activation_mask():
    """Backprop through a dynamic winner mask matches fd of the masked loss."""
    rng = np.random.default_rng(5)
    net = Network([L.flatten(), L.fc(12, 10), L.leaky_relu(0.1), L.fc(10, 4)],
                  (1, 3, 4), dtype=np.float64, seed=3)
    x = rng.standard_normal((2, 1, 3, 4))
    labels = np.array([0, 2])
    _grad_check(net, x, labels, n_sample=10_000,
                mask_cfg=WinnerRateConfig(per_layer_rate={2: 0.4}))


def test_dropout_backward_uses_forward_mask(rng):
    layer = L.build_layer(L.dropout(0.4), None, np.float32)
    x = rng.standard_normal((5, 20)).astype(np.float32)
    out = layer.forward(x, train=True, rng=np.random.default_rng(9))
    scale = layer._scale_mask
    assert np.array_equal(out, x * scale)
    dout = rng.standard_normal((5, 20)).astype(np.float32)
    assert np.array_equal(layer.backward(dout), dout * scale)
    # eval mode is a pure identity
    assert layer.forward(x, train=False) is x
