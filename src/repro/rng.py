"""Seeded random-number-generator helpers.

Every stochastic component in the library (dataset generators, model
initialization, explainer sampling) accepts either an integer seed or a
:class:`numpy.random.Generator`. :func:`ensure_rng` normalizes both into a
``Generator`` so call sites never touch global numpy random state, keeping
experiments reproducible end to end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng"]

DEFAULT_SEED = 0


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh default seed), an ``int`` seed, or an existing
        ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
