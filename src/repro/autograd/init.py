"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is reproducible without touching global state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "zeros"]


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initializer (biases)."""
    return np.zeros(shape, dtype=np.float64)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
