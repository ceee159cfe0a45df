"""Adaptive-moment gradient descent over named parameter tensors."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias correction over exactly the parameters it is given.

    To freeze a parameter, turn its ``requires_grad`` off and leave it out.
    An out-of-range hyperparameter is a ``ValueError``.
    """

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        for name, ok in (("lr", 0.0 < self.lr < np.inf), ("beta1", 0.0 <= self.beta1 < 1.0),
                         ("beta2", 0.0 <= self.beta2 < 1.0), ("eps", 0.0 < self.eps < np.inf)):
            if not ok:
                raise ValueError(f"Adam: {name} {getattr(self, name)!r} is out of range "
                                 "(lr and eps must be finite and > 0, betas in [0, 1))")
        self._params = dict(params)
        self._m = {name: np.zeros_like(p.data) for name, p in self._params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self._params.items()}
        self._t = 0

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    def step(self):
        self._t += 1
        correct1 = 1.0 - self.beta1 ** self._t
        correct2 = 1.0 - self.beta2 ** self._t
        for name, p in self._params.items():
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / correct1
            v_hat = v / correct2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)
