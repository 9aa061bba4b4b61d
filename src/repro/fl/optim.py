"""Optimizers over flat parameter vectors.

The paper uses mini-batch SGD with momentum 0.9 for the image tasks and
AdamW for Reddit (§6.1).  Both are implemented statefully over flat
vectors so the local trainer can drive any :class:`FlatModel`.
"""

from __future__ import annotations

import numpy as np


class SGD:
    """SGD with classical momentum (the paper's image-task optimizer)."""

    def __init__(self, lr: float, momentum: float = 0.9):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity + grad
        return params - self.lr * self._velocity


class AdamW:
    """AdamW with decoupled weight decay (the paper's Reddit optimizer)."""

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad**2
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        return params - self.lr * (update + self.weight_decay * params)
