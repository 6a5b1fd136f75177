"""Network-level loss, masking and validation behaviour."""

import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from jointprune import layers as L
from jointprune.checkpoint import checkpoint_from_network, network_from_checkpoint
from jointprune.errors import ConfigError, ShapeError
from jointprune.models import get_preset
from jointprune.network import (
    Network,
    l1_penalty,
    loss_and_backward,
    softmax_cross_entropy,
)
from jointprune.optim import SGD
from jointprune.pipeline import prune_to_targets
from jointprune.sparsity import (
    WinnerRateConfig,
    prune_weights_by_magnitude,
    threshold_for_target_density,
)


def test_uniform_logits_loss_is_log_c():
    for c in (2, 5, 10):
        logits = np.zeros((4, c))
        loss, dlogits = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert np.isclose(loss, np.log(c))
        # gradient rows sum to zero and are (p - onehot)/n
        assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_is_shift_invariant(rng):
    logits = rng.standard_normal((6, 7))
    labels = rng.integers(0, 7, size=6)
    l1, d1 = softmax_cross_entropy(logits, labels)
    l2, d2 = softmax_cross_entropy(logits + 1000.0, labels)
    assert np.isclose(l1, l2)
    assert np.allclose(d1, d2, atol=1e-12)


def test_label_out_of_range():
    logits = np.zeros((2, 3))
    with pytest.raises(ConfigError, match="class range"):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ConfigError):
        softmax_cross_entropy(logits, np.array([-1, 0]))


def test_masked_weight_grads_exactly_zero(rng):
    net = Network([L.flatten(), L.fc(12, 8), L.relu(), L.fc(8, 4)], (1, 3, 4),
                  dtype=np.float64)
    x = rng.standard_normal((5, 1, 3, 4))
    labels = rng.integers(0, 4, size=5)
    for _, p in net.weight_params():
        p.set_mask((rng.random(p.value.shape) > 0.5).astype(np.float64))
    loss_and_backward(net, x, labels, alpha=1e-3)
    for _, p in net.weight_params():
        assert np.all(p.grad[p.mask == 0] == 0.0)
        assert np.any(p.grad[p.mask == 1] != 0.0)


def test_loss_decomposition(rng):
    net = Network([L.flatten(), L.fc(12, 4)], (1, 3, 4), dtype=np.float64)
    x = rng.standard_normal((3, 1, 3, 4))
    labels = rng.integers(0, 4, size=3)
    total, ce, l1 = loss_and_backward(net, x, labels, alpha=0.01)
    assert total == ce + l1
    w = net.layers[1].w.value
    assert np.isclose(l1, 0.01 * np.abs(w).sum())
    # alpha=0 drops the penalty term entirely
    total0, ce0, l10 = loss_and_backward(net, x, labels, alpha=0.0)
    assert l10 == 0.0 and total0 == ce0
    assert l1_penalty(net, 0.0) == 0.0


def test_l1_counts_only_surviving_weights():
    net = Network([L.flatten(), L.fc(4, 2)], (1, 2, 2), dtype=np.float64)
    p = net.layers[1].w
    p.value = np.ones((4, 2))
    mask = np.zeros((4, 2))
    mask[:2] = 1.0
    p.set_mask(mask)
    assert np.isclose(l1_penalty(net, 0.5), 0.5 * 4)


def test_final_layer_mask_rejected():
    net = Network([L.flatten(), L.fc(6, 3)], (1, 2, 3))
    with pytest.raises(ConfigError, match="final layer"):
        net.set_mask_cfg(WinnerRateConfig(per_layer_rate={1: 0.5}))
    with pytest.raises(ConfigError, match="out of range"):
        net.set_mask_cfg(WinnerRateConfig(per_layer_rate={5: 0.5}))
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={0: 0.5}))  # ok


def test_forward_result_bookkeeping(rng):
    net = Network([L.flatten(), L.fc(10, 8), L.relu(), L.fc(8, 3)], (1, 2, 5),
                  dtype=np.float64)
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={2: 0.25}))
    x = rng.standard_normal((4, 1, 2, 5))
    res = net.forward(x)
    assert len(res.post_mask) == len(res.act_masks) == 4
    t = res.act_masks[2]
    assert t is not None and t.shape == (4, 8)
    assert np.all(t.sum(axis=1) == 2)  # ceil(0.25 * 8)
    assert np.array_equal(res.post_mask[2], net.layers[2].forward(res.post_mask[1]) * t)
    # unmasked layers pass through untouched
    assert res.act_masks[1] is None
    assert np.array_equal(res.post_mask[1], net.layers[1].forward(res.post_mask[0]))
    assert res.logits is res.post_mask[-1]


def test_rate_one_layer_is_unmasked(rng):
    net = Network([L.flatten(), L.fc(6, 4), L.fc(4, 2)], (1, 2, 3))
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={1: 1.0}))
    res = net.forward(rng.standard_normal((2, 1, 2, 3)).astype(np.float32))
    assert res.act_masks[1] is None


def test_backward_needs_train_forward(rng):
    net = Network([L.conv2d(1, 2, 3, 1, 1), L.relu(), L.maxpool(2, 2), L.avgpool(2, 2),
                   L.flatten(), L.fc(2, 3)], (1, 4, 4))
    x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
    dlogits = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(ConfigError, match="train-mode forward"):
        net.backward(dlogits)
    net.forward(x, mode="train")
    net.backward(dlogits)
    with pytest.raises(ConfigError, match="train-mode forward"):
        net.backward(dlogits)  # a backward consumes its forward
    net.forward(x, mode="train")
    net.backward(dlogits)
    net.forward(x, mode="eval")
    # an eval forward drops the backward state a train forward left behind
    assert all(getattr(layer, "_cache", None) is None for layer in net.layers)
    with pytest.raises(ConfigError, match="train-mode forward"):
        net.backward(dlogits)


def test_weight_density(rng):
    net = Network([L.flatten(), L.fc(10, 10), L.relu(), L.fc(10, 10)], (1, 2, 5))
    assert net.weight_density() == 1.0
    mask = np.zeros((10, 10))
    mask[:3] = 1.0
    net.layers[1].w.set_mask(mask)
    assert np.isclose(net.weight_density(), (30 + 100) / 200)


def test_masks_context_restores_previous_config():
    net = Network([L.flatten(), L.fc(6, 4), L.relu(), L.fc(4, 2)], (1, 2, 3))
    outer = WinnerRateConfig(per_layer_rate={2: 0.5})
    net.set_mask_cfg(outer)
    with net.masks(None):
        assert net.mask_cfg is None
    assert net.mask_cfg is outer
    with pytest.raises(RuntimeError):
        with net.masks(WinnerRateConfig(per_layer_rate={1: 0.25})):
            assert net.mask_cfg.per_layer_rate == {1: 0.25}
            raise RuntimeError
    assert net.mask_cfg is outer
    # validated like set_mask_cfg, and a rejected config changes nothing
    with pytest.raises(ConfigError, match="final layer"):
        with net.masks(WinnerRateConfig(per_layer_rate={3: 0.5})):
            pass
    assert net.mask_cfg is outer


def test_skip_gradients_match_hand_written_backward(rng):
    """The gradients of a net with an identity shortcut equal a
    hand-written backward."""
    net = Network([L.flatten(), L.fc(4, 4), L.skip_save(), L.fc(4, 4), L.skip_add(),
                   L.fc(4, 3)], (1, 2, 2), dtype=np.float64, seed=1)
    x = rng.standard_normal((5, 1, 2, 2))
    labels = rng.integers(0, 3, size=5)
    res = net.forward(x, mode="train")
    _, dlogits = softmax_cross_entropy(res.logits, labels)
    net.backward(dlogits)
    w2, w3 = net.layers[3].w.value, net.layers[5].w.value
    h1, h2 = res.post_mask[1], res.post_mask[4]
    dh2 = dlogits @ w3.T
    dh1 = dh2 @ w2.T + dh2  # branch plus identity shortcut
    expected = {5: h2.T @ dlogits, 3: h1.T @ dh2, 1: x.reshape(5, -1).T @ dh1}
    for i, grad in expected.items():
        np.testing.assert_allclose(net.layers[i].w.grad, grad, rtol=1e-12, atol=1e-15)


def _spy(layer, method, refs):
    """Record a weakref to every array ``layer.<method>`` returns."""
    call = getattr(layer, method)

    def spy(*args, **kwargs):
        out = call(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    setattr(layer, method, spy)


def _raise_in(layer):
    def broken(x, **kw):
        raise RuntimeError("layer failed")

    layer.forward = broken


def _all_dead(refs):
    gc.collect()
    return bool(refs) and all(ref() is None for ref in refs)


def test_sweep_logits_match_masked_forwards_across_the_skip_block(rng):
    """Each branch of the one-walk sweep gives the bytes of a whole forward
    with only that layer masked, on leaky6's layers around its skip block
    (3 feeds skip_save 4, whose branch stays unmasked; 7 is the skip_add);
    a suffix that raises leaves the next sweep's results unchanged."""
    net = get_preset("leaky6").build(seed=3)
    x = rng.standard_normal((6,) + net.input_shape)
    layers, rates = [8, 3, 4, 5, 6, 7], [0.1, 0.5, 1.0]
    dense, masked = net.sweep_logits(x, layers, rates)
    assert dense.tobytes() == net.forward(x, keep=()).logits.tobytes()
    assert sorted(masked) == sorted((i, r) for i in layers for r in rates)
    for (i, rate), logits in masked.items():
        with net.masks(WinnerRateConfig(per_layer_rate={i: rate})):
            assert logits.tobytes() == net.forward(x, keep=()).logits.tobytes(), (i, rate)
    assert masked[4, 0.1].tobytes() != dense.tobytes()

    _raise_in(net.layers[6])  # first reached in a suffix of layer 4
    with pytest.raises(RuntimeError, match="layer failed"):
        net.sweep_logits(x, [4], [0.5])
    del net.layers[6].forward
    assert net.sweep_logits(x, [4], [0.5])[1][4, 0.5].tobytes() == masked[4, 0.5].tobytes()


def test_no_skip_branch_outlives_its_pass(rng):
    """A saved skip branch and its gradient die with the pass that made
    them: after a forward whose layer raises between skip_save and
    skip_add, after a train step whose skip_save sits below the first
    weight layer (so backward never adds the branch gradient in), and
    after a sweep whose suffix raises; a backward that adds the branch
    gradient in frees it at once."""
    net = get_preset("leaky6").build(seed=3)
    x = rng.standard_normal((2,) + net.input_shape)
    branches = []
    _spy(net.layers[3], "forward", branches)  # its output is the branch saved at 4
    _raise_in(net.layers[6])
    with pytest.raises(RuntimeError, match="layer failed"):
        net.forward(x, keep=())
    assert _all_dead(branches)

    branches = []
    _spy(net.layers[3], "forward", branches)
    with pytest.raises(RuntimeError, match="layer failed"):
        net.sweep_logits(x, [4], [0.5])  # layer 6 is first reached in 4's suffix
    assert _all_dead(branches)

    net = Network([L.flatten(), L.skip_save(), L.fc(4, 4), L.relu(), L.fc(4, 4),
                   L.skip_add(), L.fc(4, 3)], (1, 2, 2), dtype=np.float64, seed=1)
    # a mask at the skip_save hands fc 2 a masked copy, so only the pass
    # holds the saved branch
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate={1: 0.5}))
    branches, dbranches = [], []
    _spy(net.layers[0], "forward", branches)
    _spy(net.layers[6], "backward", dbranches)  # its input gradient reaches skip_add 5
    loss_and_backward(net, rng.standard_normal((5, 1, 2, 2)), [0, 1, 2, 0, 1])
    assert _all_dead(branches) and _all_dead(dbranches)

    # a backward that reaches the skip_save frees the branch gradient
    # there, before the layers below it run
    net = Network([L.flatten(), L.fc(4, 4), L.skip_save(), L.fc(4, 4), L.skip_add(),
                   L.fc(4, 3)], (1, 2, 2), dtype=np.float64, seed=1)
    dbranches, alive_below = [], []
    _spy(net.layers[5], "backward", dbranches)  # its input gradient reaches skip_add 4
    backward = net.layers[1].backward
    net.layers[1].backward = lambda dout, **kw: (
        alive_below.append(dbranches[0]() is not None) or backward(dout, **kw))
    loss_and_backward(net, rng.standard_normal((5, 1, 2, 2)), [0, 1, 2, 0, 1])
    assert alive_below == [False]


def test_skip_wiring_is_checked_at_construction():
    """Each skip_add consumes the branch of one earlier skip_save of its
    tag, of its own shape; a second add of one save is rejected when the
    network is built, also from a checkpoint's arch."""
    def net(*middle):
        return Network([L.flatten(), L.skip_save(), L.fc(4, 4), *middle, L.fc(4, 3)],
                       (1, 2, 2))

    net(L.skip_add())
    with pytest.raises(ShapeError, match=r"layer 4 \(skip_add\): skip_add 'skip' has no saved"):
        net(L.skip_add(), L.skip_add())
    with pytest.raises(ShapeError, match=r"layer 3 \(skip_add\): skip_add 'other' has no saved"):
        net(L.skip_add("other"))
    with pytest.raises(ShapeError, match=r"layer 4 \(skip_add\): skip branch 'skip' shape"):
        net(L.fc(4, 2), L.skip_add())
    ckpt = checkpoint_from_network(net(L.skip_add()))
    doubled = dataclasses.replace(ckpt, arch=ckpt.arch[:4] + ckpt.arch[3:])
    with pytest.raises(ShapeError, match="layer 4 .*no saved branch"):
        network_from_checkpoint(doubled)


def test_backward_skips_first_weight_layer_input_gradient(rng, monkeypatch):
    """No gradient below the first weight layer is read: a conv layer 0
    scatters no padded input gradient, and a first fc layer (after a
    flatten) computes no dx."""
    scattered = []
    cropped = L._cropped
    monkeypatch.setattr(L, "_cropped", lambda dxp, p: (
        scattered.append(dxp.shape) or cropped(dxp, p)))
    net = Network([L.conv2d(1, 2, 3, 1, 1), L.relu(), L.conv2d(2, 3, 3, 1, 1),
                   L.flatten(), L.fc(48, 4)], (1, 4, 4), dtype=np.float64)
    x = rng.standard_normal((3, 1, 4, 4))
    loss_and_backward(net, x, [0, 1, 3])
    assert scattered == [(2, 6, 6, 3)]  # layer 2's padded (C, H, W, B) dx only
    net.forward(x, mode="train")  # a backward consumes its forward
    assert net.backward(np.ones((3, 4))) is None

    net = Network([L.flatten(), L.fc(12, 5), L.relu(), L.fc(5, 3)], (1, 3, 4))
    input_grads = []
    for layer in (net.layers[1], net.layers[3]):
        backward = layer.backward
        layer.backward = lambda dout, backward=backward, **kw: (
            input_grads.append(backward(dout, **kw)) or input_grads[-1])
    loss_and_backward(net, rng.standard_normal((2, 1, 3, 4)), [0, 2])
    assert input_grads[0].shape == (2, 5) and input_grads[1] is None
    assert all(np.abs(p.grad).sum() > 0 for p in net.params())


def _masked_l1_penalty(net, alpha):
    """Reference l1 term: every weight multiplied by its mask first."""
    total = 0.0
    for _, p in net.weight_params():
        w = p.value if p.mask is None else p.value * p.mask
        total += np.abs(w).sum()
    return float(alpha * total)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pruned_weights_need_no_second_mask(rng, dtype):
    """Pruned weights stay exactly ±0 through prune ramps and SGD momentum
    steps, so the l1 term, its gradient and the next prune come out byte for
    byte as if every weight were multiplied by its mask first.  The ramp
    leaves -0.0 weights behind, and sign(-0.0) must add nothing."""
    net = Network([L.conv2d(1, 4, 3, 1, 1), L.relu(), L.flatten(), L.fc(64, 12), L.relu(),
                   L.fc(12, 3)], (1, 4, 4), dtype=dtype, seed=2)
    x = rng.standard_normal((6, 1, 4, 4))
    labels = rng.integers(0, 3, size=6)
    opt = SGD(net.params(), lr=0.05, momentum=0.9)
    alpha = 1e-2
    negative_zeros = 0
    for ramp in (0.25, 0.5, 0.75, 1.0):
        expected_masks = []
        for _, p in net.weight_params():
            w = p.value if p.mask is None else p.value * p.mask
            m = prune_weights_by_magnitude(w, threshold_for_target_density(w, 1 - 0.7 * ramp))
            expected_masks.append(m if p.mask is None else m * p.mask)
        prune_to_targets(net, {0: 0.3, 3: 0.3, 5: 0.3}, ramp)
        for (_, p), m in zip(net.weight_params(), expected_masks):
            assert p.mask.tobytes() == m.tobytes()
        for _ in range(3):
            res = net.forward(x, mode="train")
            net.backward(softmax_cross_entropy(res.logits, labels)[1])
            expected = []
            for _, p in net.weight_params():
                g = alpha * np.sign(p.value)
                g *= p.mask
                expected.append(p.grad + g.astype(p.grad.dtype))
            _, _, l1 = loss_and_backward(net, x, labels, alpha=alpha)
            assert np.float64(l1).tobytes() == np.float64(_masked_l1_penalty(net, alpha)).tobytes()
            for (_, p), e in zip(net.weight_params(), expected):
                assert p.grad.dtype == e.dtype and p.grad.tobytes() == e.tobytes()
            opt.step()
            negative_zeros += sum(int((np.signbit(p.value) & (p.mask == 0)).sum())
                                  for _, p in net.weight_params())
    assert negative_zeros > 0


@pytest.mark.parametrize("kind, geometry, missing", [
    ("fc", {"n_in": 4}, "n_out"),
    ("conv2d", {"in_ch": 1, "out_ch": 2, "stride": 1, "pad": 0}, "kernel"),
    ("maxpool", {"window": 2, "pad": 0}, "stride"),
    ("avgpool", {"stride": 2, "pad": 0}, "window"),
    ("dropout", {}, "rate"),
    ("skip_save", {}, "tag"),
    ("skip_add", {}, "tag"),
    ("leaky_relu", {}, "slope"),
])
def test_spec_missing_geometry_is_config_error(kind, geometry, missing):
    with pytest.raises(ConfigError, match=f"{kind} layer geometry lacks {missing}"):
        L.LayerSpec(kind, geometry)
    with pytest.raises(ConfigError, match="must be a mapping"):
        L.LayerSpec(kind, None)


@pytest.mark.parametrize("spec, key, value, least", [
    (L.fc(4, 2), "n_in", True, 1),
    (L.conv2d(1, 2, 3), "kernel", 2.5, 1),
    (L.conv2d(1, 2, 3), "pad", -1, 0),
    (L.avgpool(2), "window", "two", 1),
    (L.maxpool(2), "stride", None, 1),
    (L.conv2d(1, 2, 3), "kernel", np.float32(2.5), 1),
    (L.conv2d(1, 2, 3), "stride", np.float32("inf"), 1),
    (L.fc(4, 2), "n_out", np.True_, 1),
], ids=["bool", "fraction", "pad-below-0", "string", "none",
        "numpy-fraction", "numpy-inf", "numpy-bool"])
def test_spec_size_must_be_an_int_in_range(spec, key, value, least):
    with pytest.raises(ConfigError, match=re.escape(
            f"{spec.kind} {key} must be an int >= {least}, got {value!r}")):
        L.LayerSpec(spec.kind, {**spec.geometry, key: value})
    # an integral float is the int it names
    size = L.LayerSpec(spec.kind, {**spec.geometry, key: 3.0}).geometry[key]
    assert size == 3 and type(size) is int


@pytest.mark.parametrize("spec, key, value, words", [
    (L.leaky_relu(), "slope", "x", "in (0,1)"),
    (L.leaky_relu(), "slope", float("nan"), "in (0,1)"),
    (L.dropout(0.5), "rate", None, "in [0,1)"),
    (L.dropout(0.5), "rate", np.True_, "in [0,1)"),
    (L.skip_save(), "tag", [1], "a str"),
    (L.skip_add(), "tag", 1, "a str"),
])
def test_spec_value_outside_its_rule_is_config_error(spec, key, value, words):
    with pytest.raises(ConfigError, match=re.escape(
            f"{spec.kind} {key} must be {words}, got {value!r}")):
        L.LayerSpec(spec.kind, {**spec.geometry, key: value})


@pytest.mark.parametrize("shape", [(1, "x", 28), (1, 0, 28), (), (1, -2, 28), (1, 2.5, 28),
                                   (1, True, 28), 784, None, "28"],
                         ids=["str", "zero", "empty", "negative", "fraction", "bool", "int", "none",
                              "string"])
def test_input_shape_must_be_ints_of_at_least_one(shape):
    words = "have one or more dims" if shape == () else "be a list of int >= 1"
    with pytest.raises(ConfigError, match=re.escape(f"input shape must {words}, got {shape!r}")):
        Network([L.flatten(), L.fc(784, 10)], shape)


def test_input_shape_is_cast_to_ints():
    """An integral float or a numeric string dim is the int it names, as
    a layer size is."""
    net = Network([L.flatten(), L.fc(784, 10)], [1.0, np.int64(28), "28"])
    assert net.input_shape == (1, 28, 28) and all(type(d) is int for d in net.input_shape)


def test_spec_numeric_string_is_cast():
    """A numeric string slope or rate is the float it names, as in YAML."""
    slope, rate = L.leaky_relu("0.25").geometry["slope"], L.dropout("0").geometry["rate"]
    assert (slope, rate) == (0.25, 0.0) and type(slope) is type(rate) is float


def _f64_forward(net, x, act_masks):
    """Logits of ``net``'s params and specs in float64, applying the given
    winner masks instead of selecting its own: float64 may put another
    element on a winner cut than float32 does."""
    net64 = Network(net.specs, net.input_shape, dtype=np.float64,
                    stored=lambda i, name, _: getattr(net.layers[i], name).value)
    y, branches = net64._as_input(x), {}
    for i, t in enumerate(act_masks):
        y = net64._layer_forward(i, y, branches)
        if t is not None:
            y = y * t
    return y


@pytest.mark.parametrize("name", ["lenet4", "convnet5", "leaky6"])
def test_batch1_logits_match_batched_and_float64(rng, name):
    """A preset pruned to its targets with exact masks at its reference
    rates: each batch-1 logit row is within 1e-5 x (1 + max |logit|) of
    the batched row, with the same argmax, and within 1e-4 x (1 + max
    |logit|) of a float64 forward, as perfbench's batch1_vs_batched and
    f64_reference checks require.  lenet4's and convnet5's fc1 see a
    quarter or fewer nonzero inputs, so their batch-1 product gathers."""
    preset = get_preset(name)
    net = preset.build(seed=1)
    prune_to_targets(net, preset.weight_targets, ramp=1.0)
    net.set_mask_cfg(WinnerRateConfig(per_layer_rate=dict(preset.reference_rates)))
    x = rng.random((64,) + net.input_shape).astype(np.float32)
    batched = net.forward(x).logits
    tol = 1e-5 * (1.0 + np.abs(batched).max())
    for r in range(len(x)):
        res = net.forward(x[r:r + 1])
        assert np.abs(res.logits[0] - batched[r]).max() <= tol, r
        assert res.logits[0].argmax() == batched[r].argmax(), r
        if name != "leaky6":  # fc1 is layer 7, after a flatten
            assert 4 * np.count_nonzero(res.post_mask[6]) <= net.specs[7].geometry["n_in"], r
        if r < 4:
            ref = _f64_forward(net, x[r:r + 1], res.act_masks)
            assert np.abs(res.logits - ref).max() <= 1e-4 * (1.0 + np.abs(ref).max()), r
