"""Optimizer update rules against hand-computed recurrences."""

import numpy as np
import pytest

from jointprune.errors import ConfigError, DivergenceError
from jointprune.optim import SGD, Adadelta, make_optimizer
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
