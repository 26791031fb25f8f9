"""Adam over dicts of numpy arrays, and overflow-free logistic helpers."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam (minimization); state is keyed by parameter name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, params: dict, grads: dict) -> dict:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        out = {}
        for key, p in params.items():
            g = grads[key]
            # a moment starts as the scalar 0.0, which broadcasts against g
            m = b1 * self._m.get(key, 0.0) + (1.0 - b1) * g
            v = b2 * self._v.get(key, 0.0) + (1.0 - b2) * g * g
            self._m[key], self._v[key] = m, v
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            out[key] = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow; -log sigmoid(x) == softplus(-x)."""
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
