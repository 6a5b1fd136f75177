"""SGD (with momentum) and Adadelta parameter updates.

Both optimizers keep per-param state arrays congruent to the values and
respect static weight masks: a masked-out position receives no update and
stays at exactly zero.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DivergenceError


class Optimizer:
    def __init__(self, params):
        self.params = list(params)

    def _check_finite(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise DivergenceError(f"non-finite gradient in param {p.name!r}")

    def step(self):
        self._check_finite()
        self._update()
        for p in self.params:
            if p.mask is not None:
                p.value *= p.mask


class SGD(Optimizer):
    def __init__(self, params, lr=0.1, momentum=0.0):
        super().__init__(params)
        if not lr > 0:  # written so that NaN fails too
            raise ConfigError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def _update(self):
        for p, v in zip(self.params, self.velocity):
            if self.momentum:
                v *= self.momentum
                v -= self.lr * p.grad
                p.value += v
            else:
                p.value -= self.lr * p.grad


class Adadelta(Optimizer):
    """Exponential-moving-average update:

        acc_g = rho*acc_g + (1-rho)*g^2
        delta = -sqrt(acc_d + eps) / sqrt(acc_g + eps) * g
        acc_d = rho*acc_d + (1-rho)*delta^2
        w    += lr * delta
    """

    def __init__(self, params, lr=1.0, rho=0.95, eps=1e-6):
        super().__init__(params)
        if not lr > 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0,1), got {rho}")
        if not eps > 0:
            raise ConfigError(f"eps must be > 0, got {eps}")
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.acc_grad = [np.zeros_like(p.value) for p in self.params]
        self.acc_delta = [np.zeros_like(p.value) for p in self.params]

    def _update(self):
        rho, eps = self.rho, self.eps
        for p, ag, ad in zip(self.params, self.acc_grad, self.acc_delta):
            g = p.grad
            ag *= rho
            ag += (1.0 - rho) * g * g
            delta = -np.sqrt(ad + eps) / np.sqrt(ag + eps) * g
            ad *= rho
            ad += (1.0 - rho) * delta * delta
            p.value += self.lr * delta


OPTIMIZERS = {"sgd": SGD, "adadelta": Adadelta}


def make_optimizer(name, params, **hyper):
    """Optimizer ``name``, a key of ``OPTIMIZERS`` (else ``ConfigError``)."""
    if not isinstance(name, str) or name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[name](params, **hyper)
