"""Graph perturbation transforms.

Controlled corruptions used by robustness experiments and failure-
injection tests: noise edges, edge dropout, feature noise/zeroing and
label shuffling. All transforms are pure (return a new :class:`Graph`)
and seeded.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..rng import ensure_rng
from ..sparse import feature_dense
from .data import Graph
from .utils import coalesce_edges

__all__ = ["add_noise_edges", "drop_edges", "perturb_features",
           "zero_features", "shuffle_labels"]


def add_noise_edges(graph: Graph, num_edges: int,
                    rng: int | np.random.Generator | None = 0,
                    bidirectional: bool = True) -> Graph:
    """Add ``num_edges`` random edges (both directions when requested)."""
    rng = ensure_rng(rng)
    if num_edges < 0:
        raise GraphError("num_edges must be non-negative")
    out = graph.copy()
    pairs = []
    attempts = 0
    while len(pairs) < num_edges and attempts < 50 * (num_edges + 1):
        attempts += 1
        u, v = rng.integers(graph.num_nodes, size=2)
        if u != v:
            pairs.append((int(u), int(v)))
            if bidirectional:
                pairs.append((int(v), int(u)))
    if pairs:
        extra = np.array(pairs, dtype=np.int64).T
        out.edge_index = coalesce_edges(np.concatenate([out.edge_index, extra], axis=1))
    return out


def drop_edges(graph: Graph, fraction: float,
               rng: int | np.random.Generator | None = 0) -> Graph:
    """Remove a random fraction of edges."""
    if not 0.0 <= fraction <= 1.0:
        raise GraphError(f"fraction must be in [0, 1], got {fraction}")
    rng = ensure_rng(rng)
    keep = rng.random(graph.num_edges) >= fraction
    return graph.with_edges(keep)


def perturb_features(graph: Graph, noise_std: float,
                     rng: int | np.random.Generator | None = 0) -> Graph:
    """Add Gaussian noise to node features."""
    rng = ensure_rng(rng)
    out = graph.copy()
    out.x = feature_dense(out.x) + rng.normal(0.0, noise_std, size=out.x.shape)
    return out


def zero_features(graph: Graph, fraction: float,
                  rng: int | np.random.Generator | None = 0) -> Graph:
    """Zero out the features of a random fraction of nodes."""
    if not 0.0 <= fraction <= 1.0:
        raise GraphError(f"fraction must be in [0, 1], got {fraction}")
    rng = ensure_rng(rng)
    out = graph.copy()
    mask = rng.random(graph.num_nodes) < fraction
    out.x = np.where(mask[:, None], 0.0, feature_dense(graph.x))
    return out


def shuffle_labels(graph: Graph,
                   rng: int | np.random.Generator | None = 0) -> Graph:
    """Randomly permute node labels (sanity-check control)."""
    if not isinstance(graph.y, np.ndarray):
        raise GraphError("shuffle_labels requires per-node labels")
    rng = ensure_rng(rng)
    out = graph.copy()
    out.y = rng.permutation(out.y)
    return out
