"""SGD (with momentum) and Adadelta parameter updates.

Both optimizers keep per-param state arrays congruent to the values and
respect static weight masks: a masked-out position receives no update and
stays at exactly zero.

An update walks each param in flat chunks of ``layers.BLOCK_BYTES`` (at
least one element), updating the value, the state and the mask product of
a chunk in place through a few preallocated chunk-sized scratch arrays, so
that the chunk stays in cache across the update's passes and no
param-sized temporary is made.  Each element sees the operations of the
whole-array update in the same order, so the bytes do not depend on the
chunk.
"""

from __future__ import annotations

import numpy as np

from . import layers
from .errors import DivergenceError
from .fields import FRACTION, OPEN_UNIT, POSITIVE, check, one_of


class Optimizer:
    """A subclass lists its per-param state arrays in ``state`` (one list
    per kind, congruent to ``params``), says how many chunk-sized scratch
    arrays its update uses in ``scratch_arrays``, and updates one chunk in
    ``_update``."""

    scratch_arrays = 1

    def __init__(self, params):
        self.params = list(params)
        self.state = []
        # the scratch arrays of one chunk, for each param dtype (np.empty
        # touches no page until an update writes to it)
        self._scratch = {}
        for dtype in {p.value.dtype for p in self.params}:
            n = max(1, layers.BLOCK_BYTES // dtype.itemsize)
            self._scratch[dtype] = [np.empty(n, dtype) for _ in range(self.scratch_arrays)]

    def _check_finite(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise DivergenceError(f"non-finite gradient in param {p.name!r}")

    def step(self):
        """Check every gradient, then update each param a chunk at a time:
        ``_update``, then the mask product.  Values and state are written
        through flat views (every param value is C-contiguous); a gradient
        that is not, such as a conv weight's, is read through one flat
        copy."""
        self._check_finite()
        for i, p in enumerate(self.params):
            scratch = self._scratch[p.value.dtype]
            chunk = len(scratch[0])
            value, grad = p.value.reshape(-1), p.grad.reshape(-1)
            mask = None if p.mask is None else p.mask.reshape(-1)
            state = [kind[i].reshape(-1) for kind in self.state]
            for lo in range(0, len(value), chunk):
                part = slice(lo, lo + chunk)
                n = len(value[part])
                self._update(value[part], grad[part], [s[part] for s in state],
                             [t[:n] for t in scratch])
                if mask is not None:
                    value[part] *= mask[part]


class SGD(Optimizer):
    def __init__(self, params, lr=0.1, momentum=0.0):
        super().__init__(params)
        self.lr = check("lr", lr, float, **POSITIVE)
        self.momentum = check("momentum", momentum, float, **FRACTION)
        self.velocity = [np.zeros_like(p.value) for p in self.params]
        self.state = [self.velocity]

    def _update(self, value, grad, state, tmp):
        """``v = momentum*v - lr*g; w += v``, or ``w -= lr*g`` without
        momentum."""
        (t,) = tmp
        np.multiply(self.lr, grad, out=t)
        if self.momentum:
            (v,) = state
            v *= self.momentum
            v -= t
            value += v
        else:
            value -= t


class Adadelta(Optimizer):
    """Exponential-moving-average update:

        acc_g = rho*acc_g + (1-rho)*g^2
        delta = -sqrt(acc_d + eps) / sqrt(acc_g + eps) * g
        acc_d = rho*acc_d + (1-rho)*delta^2
        w    += lr * delta
    """

    scratch_arrays = 2

    def __init__(self, params, lr=1.0, rho=0.95, eps=1e-6):
        super().__init__(params)
        self.lr = check("lr", lr, float, **POSITIVE)
        self.rho = check("rho", rho, float, **OPEN_UNIT)
        self.eps = check("eps", eps, float, **POSITIVE)
        self.acc_grad = [np.zeros_like(p.value) for p in self.params]
        self.acc_delta = [np.zeros_like(p.value) for p in self.params]
        self.state = [self.acc_grad, self.acc_delta]

    def _update(self, value, grad, state, tmp):
        """The recurrence above, each product and quotient evaluated left to
        right: ``((1-rho)*g)*g``, ``((-sqrt(acc_d+eps))/sqrt(acc_g+eps))*g``,
        ``((1-rho)*delta)*delta`` and ``lr*delta``."""
        rho, eps = self.rho, self.eps
        ag, ad = state
        delta, t = tmp
        ag *= rho
        np.multiply(1.0 - rho, grad, out=t)
        t *= grad
        ag += t
        np.add(ad, eps, out=delta)
        np.sqrt(delta, out=delta)
        np.negative(delta, out=delta)
        np.add(ag, eps, out=t)
        np.sqrt(t, out=t)
        delta /= t
        delta *= grad
        ad *= rho
        np.multiply(1.0 - rho, delta, out=t)
        t *= delta
        ad += t
        np.multiply(self.lr, delta, out=t)
        value += t


OPTIMIZERS = {"sgd": SGD, "adadelta": Adadelta}
OPTIMIZER_NAMES = one_of(*OPTIMIZERS)


def make_optimizer(name, params, **hyper):
    """Optimizer ``name``, a key of ``OPTIMIZERS`` (else ``ConfigError``)."""
    return OPTIMIZERS[check("optimizer", name, str, **OPTIMIZER_NAMES)](params, **hyper)
