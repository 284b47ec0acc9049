"""The optimizer: Adam."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .module import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = lr
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * grad
            v *= self.b2
            v += (1 - self.b2) * grad**2
            m_hat = m / (1 - self.b1**self._t)
            v_hat = v / (1 - self.b2**self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
