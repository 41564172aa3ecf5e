"""Dataset registry keyed by the paper's names (Table III).

``load_dataset("cora")`` etc. returns a :class:`NodeDataset` or
:class:`GraphDataset`. The global experiment scale defaults to the
``REPRO_SCALE`` environment variable (0.25 if unset) so the benchmark
harness is tractable on CPU; ``REPRO_SCALE=1`` reproduces paper sizes.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np
from scipy.sparse import issparse

from ..errors import DatasetError
from ..obs import span
from ..obs.names import SPAN_DATASET_LOAD
from .base import GraphDataset, NodeDataset
from .citation import citeseer, cora, pubmed
from .molecules import bbbp, mutag
from .synthetic import ba_2motifs, ba_shapes, tree_cycles

__all__ = ["DATASET_NAMES", "load_dataset", "default_scale", "dataset_task"]

_BUILDERS: dict[str, Callable] = {
    "cora": cora,
    "citeseer": citeseer,
    "pubmed": pubmed,
    "ba_shapes": ba_shapes,
    "tree_cycles": tree_cycles,
    "mutag": mutag,
    "bbbp": bbbp,
    "ba_2motifs": ba_2motifs,
}

DATASET_NAMES = tuple(_BUILDERS)

_TASKS = {
    "cora": "node",
    "citeseer": "node",
    "pubmed": "node",
    "ba_shapes": "node",
    "tree_cycles": "node",
    "mutag": "graph",
    "bbbp": "graph",
    "ba_2motifs": "graph",
}


def _check_scale(scale: str | float, source: str) -> float:
    """``scale`` as a float; :class:`DatasetError` unless finite and > 0."""
    try:
        value = float(scale)
    except (TypeError, ValueError):
        raise DatasetError(f"{source} must be a number, got {scale!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise DatasetError(f"{source} must be a positive finite number, got {scale!r}")
    return value


def default_scale() -> float:
    """Experiment scale from ``REPRO_SCALE`` (default 0.25)."""
    return _check_scale(os.environ.get("REPRO_SCALE", "0.25"), "REPRO_SCALE")


def dataset_task(name: str) -> str:
    """``"node"`` or ``"graph"`` for a registry name."""
    if name not in _TASKS:
        raise DatasetError(f"unknown dataset {name!r}; available: {sorted(_BUILDERS)}")
    return _TASKS[name]


def _feature_layout(graphs) -> dict:
    """``dataset_load`` span attributes: how the features are stored
    (``"csr"``, ``"dense"``, or ``"mixed"`` across a graph dataset) and
    the bytes they take."""
    layouts = {"csr" if issparse(g.x) else "dense" for g in graphs}
    nbytes = sum(g.x.data.nbytes + g.x.indices.nbytes + g.x.indptr.nbytes
                 if issparse(g.x) else g.x.nbytes for g in graphs)
    return {"features": layouts.pop() if len(layouts) == 1 else "mixed",
            "feature_bytes": int(nbytes)}


def load_dataset(name: str, scale: float | None = None,
                 seed: int | np.random.Generator | None = 0) -> NodeDataset | GraphDataset:
    """Build the named dataset.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES` (case-insensitive; hyphens allowed).
    scale:
        Size multiplier, positive and finite; ``None`` uses
        :func:`default_scale`.
    seed:
        Generator seed for reproducibility.
    """
    key = name.lower().replace("-", "_")
    if key not in _BUILDERS:
        raise DatasetError(f"unknown dataset {name!r}; available: {sorted(_BUILDERS)}")
    scale = default_scale() if scale is None else _check_scale(scale, "scale")
    with span(SPAN_DATASET_LOAD, dataset=key, scale=scale) as sp:
        dataset = _BUILDERS[key](scale=scale, seed=seed)
        if sp is not None:
            graphs = dataset.graphs if isinstance(dataset, GraphDataset) else [dataset.graph]
            sp.set(nodes=sum(g.num_nodes for g in graphs),
                   edges=sum(g.num_edges for g in graphs),
                   **_feature_layout(graphs))
    return dataset
