"""Adam over dicts of numpy arrays, and overflow-free logistic helpers."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam (minimization); state is keyed by parameter name.

    A step returns new parameter arrays and leaves `params` and `grads` as they
    were. Each tensor keeps its moments `m` and `v` and one scratch buffer,
    updated in place with the operations of the textbook form, in its order:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, then
    p - lr m_hat / (sqrt(v_hat) + eps), so the steps are the same bits.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state: dict = {}  # key -> (m, v, scratch)

    def step(self, params: dict, grads: dict) -> dict:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        out = {}
        for key, p in params.items():
            g = grads[key]
            if key not in self._state:
                self._state[key] = (np.zeros_like(p), np.zeros_like(p), np.empty_like(p))
            m, v, scratch = self._state[key]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=scratch)
            v *= b2
            scratch = np.multiply(g, 1.0 - b2, out=scratch)
            scratch *= g
            v += scratch
            new = np.divide(v, 1.0 - b2**self.t)  # v_hat, then the denominator, then p
            np.sqrt(new, out=new)
            new += self.eps
            np.divide(m, 1.0 - b1**self.t, out=scratch)
            scratch *= self.lr
            scratch /= new
            out[key] = np.subtract(p, scratch, out=new)
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
