"""The Adam optimizer."""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Parameter


class Adam:
    """Adam with bias correction over a parameter list."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
