"""Numerical gradient checking.

The autograd test suite's oracle: every backward closure must match a
central finite-difference estimate. Not public API.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

__all__: list[str] = []


def numerical_grad(fn: Callable[[], Tensor], tensor: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn()`` w.r.t. ``tensor``.

    ``fn`` must recompute the scalar output from ``tensor.data`` each call
    (i.e. close over ``tensor``, not over a cached forward result).
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn().item()
        flat[i] = original - eps
        minus = fn().item()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(fn: Callable[[], Tensor], tensors: list[Tensor],
                    atol: float = 1e-5, rtol: float = 1e-4, eps: float = 1e-6) -> None:
    """Assert analytic gradients of ``fn`` match finite differences.

    Raises ``AssertionError`` with a per-tensor report on mismatch.
    """
    for tensor in tensors:
        tensor.zero_grad()
    out = fn()
    out.backward()
    failures = []
    for i, tensor in enumerate(tensors):
        numeric = numerical_grad(fn, tensor, eps=eps)
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            diff = np.abs(analytic - numeric).max()
            failures.append(f"tensor {i} (shape {tensor.shape}): max abs diff {diff:.3e}")
    if failures:
        raise AssertionError("gradient check failed:\n" + "\n".join(failures))
