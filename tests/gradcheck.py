"""Finite-difference gradient checking.

The checker never looks at an operation's backward rule: it re-evaluates the
forward function under small symmetric perturbations, so it is an independent
oracle for every analytic gradient in the package.  ``weighted_sum`` is the
tests' scalar loss on an op's output.
"""

from __future__ import annotations

import numpy as np

from irismatch import tensor as T


def weighted_sum(t, c):
    """The scalar sum(t * c) of a tensor and a constant array of its shape,
    as one recorded op.  Its backward hands ``t`` the gradient ``g * c``:
    under ``backward``'s seed of 1.0 that is ``c`` bit for bit (-0.0
    included), in the dtype of ``t * c``."""
    c = np.asarray(c)
    if c.shape != t.shape:
        raise ValueError(f"weights of shape {c.shape} for a tensor of shape {t.shape}")
    return T._make((t.data * c).sum(), (t,), lambda g: (g * c,))


def numerical_gradient(f, array, h=1e-5):
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array``.

    ``array`` is perturbed in place one element at a time and restored, so
    ``f`` must read the same array object on every call.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    """max over elements of |a - n| / max(|a|, |n|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_gradients(build_loss, tensors, h=1e-5):
    """Compare backward() gradients against central differences.

    ``build_loss`` must construct a fresh scalar-loss Tensor from the current
    data of ``tensors`` (a pure, deterministic function of that data).
    Returns the worst relative error over all tensors.
    """
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    for t, a in zip(tensors, analytic):
        numeric = numerical_gradient(lambda: build_loss().item(), t.data, h=h)
        worst = max(worst, max_relative_error(a, numeric))
    return worst
