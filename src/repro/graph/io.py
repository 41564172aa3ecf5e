"""Serialization for model checkpoints (npz).

Keeps experiments resumable: trained models are cached to disk and
reloaded, which the benchmark harness uses to avoid retraining a model
for every figure.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import GraphError

__all__ = ["save_state_dict", "load_state_dict"]


def save_state_dict(state: dict[str, np.ndarray], path: str | Path) -> None:
    """Save a model state dict (name → array) to ``.npz``."""
    np.savez_compressed(Path(path), **{k.replace(".", "__"): v for k, v in state.items()})


def load_state_dict(path: str | Path) -> dict[str, np.ndarray]:
    """Load a model state dict saved by :func:`save_state_dict`."""
    path = Path(path)
    if not path.exists():
        raise GraphError(f"no such checkpoint file: {path}")
    with np.load(path, allow_pickle=False) as data:
        return {k.replace("__", "."): data[k].copy() for k in data.files}
