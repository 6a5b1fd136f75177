"""Optimizer update rules against hand-computed recurrences."""

import numpy as np
import pytest

from jointprune.errors import ConfigError, DivergenceError
from jointprune.optim import SGD, Adadelta, make_optimizer
from jointprune import layers as L
from jointprune.layers import Param

from oracles import adadelta_scalar_reference


def _param(values):
    return Param("w", np.array(values, dtype=np.float64))


def test_sgd_plain_step():
    p = _param([1.0, -2.0])
    opt = SGD([p], lr=0.5)
    p.grad = np.array([0.2, -0.4])
    opt.step()
    assert np.allclose(p.value, [0.9, -1.8])


def test_sgd_momentum_two_steps():
    p = _param([0.0])
    opt = SGD([p], lr=1.0, momentum=0.9)
    p.grad = np.array([1.0])
    opt.step()  # v = -1, w = -1
    assert np.allclose(p.value, [-1.0])
    p.grad = np.array([1.0])
    opt.step()  # v = -0.9 - 1 = -1.9, w = -2.9
    assert np.allclose(p.value, [-2.9])


def test_zero_grad_is_noop():
    p = _param([3.0, -1.5])
    for opt in (SGD([p], lr=0.1), Adadelta([p], lr=1.0)):
        p.grad = np.zeros(2)
        before = p.value.copy()
        opt.step()
        assert np.array_equal(p.value, before)


def test_adadelta_matches_scalar_recurrence():
    grads = [0.3, -0.7, 0.1]
    lr, rho, eps = 0.5, 0.9, 1e-6
    p = _param([0.0])
    opt = Adadelta([p], lr=lr, rho=rho, eps=eps)
    trace = adadelta_scalar_reference(grads, lr, rho, eps)
    for g, expected in zip(grads, trace):
        p.grad = np.array([g])
        opt.step()
        assert np.allclose(p.value, [expected], rtol=1e-12)


def test_masked_positions_never_move(rng):
    p = _param(rng.standard_normal(20))
    mask = (rng.random(20) > 0.5).astype(np.float64)
    p.set_mask(mask)
    for opt in (SGD([p], lr=0.1, momentum=0.9), Adadelta([p], lr=1.0)):
        for _ in range(3):
            p.grad = rng.standard_normal(20)
            opt.step()
            assert np.all(p.value[mask == 0] == 0.0)


def test_nonfinite_gradient_aborts():
    p = _param([1.0, 2.0])
    opt = SGD([p], lr=0.1)
    p.grad = np.array([np.nan, 0.0])
    before = p.value.copy()
    with pytest.raises(DivergenceError, match="w"):
        opt.step()
    assert np.array_equal(p.value, before)  # aborted before any update
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(DivergenceError):
        opt.step()


def test_make_optimizer():
    p = _param([1.0])
    assert isinstance(make_optimizer("sgd", [p], lr=0.2), SGD)
    assert isinstance(make_optimizer("adadelta", [p], rho=0.9), Adadelta)
    with pytest.raises(ConfigError):
        make_optimizer("adam", [p])
    with pytest.raises(ConfigError):
        SGD([p], lr=0.0)
    with pytest.raises(ConfigError):
        Adadelta([p], rho=1.0)
    with pytest.raises(ConfigError):
        Adadelta([p], eps=0.0)


def _whole_array_sgd(values, grads, masks, velocity, lr, momentum):
    """The update as one whole-array pass per param, then the mask products."""
    for w, g, v in zip(values, grads, velocity):
        if momentum:
            v *= momentum
            v -= lr * g
            w += v
        else:
            w -= lr * g
    for w, m in zip(values, masks):
        if m is not None:
            w *= m


def _whole_array_adadelta(values, grads, masks, acc_grad, acc_delta, lr, rho, eps):
    for w, g, ag, ad in zip(values, grads, acc_grad, acc_delta):
        ag *= rho
        ag += (1.0 - rho) * g * g
        delta = -np.sqrt(ad + eps) / np.sqrt(ag + eps) * g
        ad *= rho
        ad += (1.0 - rho) * delta * delta
        w += lr * delta
    for w, m in zip(values, masks):
        if m is not None:
            w *= m


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["sgd", "sgd-momentum", "adadelta"])
def test_chunked_update_matches_whole_array_update_bytewise(rng, monkeypatch, dtype, kind):
    """With chunks of 61 elements, params that span several chunks and a
    ragged tail (masked and not), one shorter than a chunk and a conv
    weight whose gradient is not contiguous get, step after step, the
    value and state bytes of the whole-array update, with signed zero
    gradients in the mix."""
    monkeypatch.setattr(L, "BLOCK_BYTES", 61 * np.dtype(dtype).itemsize)
    shapes = [(37, 29), (29,), (7, 5, 3, 3), (400,)]
    params = [Param(f"p{i}", rng.standard_normal(s).astype(dtype)) for i, s in enumerate(shapes)]
    for i in (0, 2):
        params[i].set_mask(rng.random(shapes[i]) > 0.4)
    if kind == "adadelta":
        opt = Adadelta(params, lr=0.7, rho=0.9, eps=1e-6)
    else:
        opt = SGD(params, lr=0.05, momentum=0.9 if kind == "sgd-momentum" else 0.0)
    values = [p.value.copy() for p in params]
    masks = [p.mask for p in params]
    state = [[np.zeros_like(v) for v in values] for _ in opt.state]
    for _ in range(4):
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        grads[2] = np.ascontiguousarray(grads[2].reshape(7, -1).T).T.reshape(shapes[2])
        for g in grads[:2]:
            g[rng.random(g.shape) < 0.1] = 0.0
            g[rng.random(g.shape) < 0.1] = -0.0
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        if kind == "adadelta":
            _whole_array_adadelta(values, grads, masks, *state, opt.lr, opt.rho, opt.eps)
        else:
            _whole_array_sgd(values, grads, masks, *state, opt.lr, opt.momentum)
        for p, v in zip(params, values):
            assert p.value.tobytes() == v.tobytes(), p.name
        for mine, want in zip(opt.state, state):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mine, want))
    assert not grads[2].flags.c_contiguous
    assert all(p.value.size > 61 for p in params[::2]) and params[1].value.size < 61


def test_optimizers_on_no_params_step():
    for opt in (SGD([], lr=0.1), Adadelta([], lr=1.0)):
        opt.step()
