"""Serialization for graphs and model checkpoints (npz / JSON).

Keeps experiments resumable: trained models and generated datasets can be
cached to disk and reloaded, which the benchmark harness uses to avoid
retraining a model for every figure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from .data import Graph

__all__ = ["save_graph", "load_graph", "save_state_dict", "load_state_dict"]


def save_graph(graph: Graph, path: str | Path) -> None:
    """Serialize a :class:`Graph` to an ``.npz`` file.

    Dense features are stored as ``x``; CSR features as their arrays,
    ``x_data`` / ``x_indices`` / ``x_indptr`` / ``x_shape``, so neither
    form needs pickling.
    """
    path = Path(path)
    payload: dict[str, np.ndarray] = {"edge_index": graph.edge_index}
    if sp.issparse(graph.x):
        payload.update(x_data=graph.x.data, x_indices=graph.x.indices,
                       x_indptr=graph.x.indptr,
                       x_shape=np.array(graph.x.shape, dtype=np.int64))
    else:
        payload["x"] = graph.x
    if isinstance(graph.y, np.ndarray):
        payload["y_array"] = graph.y
    elif graph.y is not None:
        payload["y_scalar"] = np.array([int(graph.y)])
    for name in ("train_mask", "val_mask", "test_mask"):
        mask = getattr(graph, name)
        if mask is not None:
            payload[name] = mask
    if graph.motif_edges is not None:
        payload["motif_edges"] = np.array(sorted(graph.motif_edges), dtype=np.int64)
    payload["meta_json"] = np.frombuffer(
        json.dumps(graph.meta, default=str).encode(), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def load_graph(path: str | Path) -> Graph:
    """Load a :class:`Graph` saved by :func:`save_graph`."""
    path = Path(path)
    if not path.exists():
        raise GraphError(f"no such graph file: {path}")
    with np.load(path, allow_pickle=False) as data:
        y: np.ndarray | int | None = None
        if "y_array" in data:
            y = data["y_array"]
        elif "y_scalar" in data:
            y = int(data["y_scalar"][0])
        motif = None
        if "motif_edges" in data:
            motif = frozenset((int(u), int(v)) for u, v in data["motif_edges"])
        meta = {}
        if "meta_json" in data:
            meta = json.loads(bytes(data["meta_json"]).decode())
        if "x" in data:
            x = data["x"]
        else:
            x = sp.csr_matrix((data["x_data"], data["x_indices"], data["x_indptr"]),
                              shape=tuple(int(n) for n in data["x_shape"]))
        return Graph(
            edge_index=data["edge_index"],
            x=x,
            y=y,
            train_mask=data["train_mask"] if "train_mask" in data else None,
            val_mask=data["val_mask"] if "val_mask" in data else None,
            test_mask=data["test_mask"] if "test_mask" in data else None,
            motif_edges=motif,
            meta=meta,
        )


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
