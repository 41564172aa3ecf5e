"""Disjoint-union batching for graph classification.

Mirrors PyG's ``Batch``: node features are stacked, edge indices are offset
per graph, and a ``batch`` vector maps every node to its graph so pooling
layers can aggregate per graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from .data import Graph

__all__ = ["GraphBatch"]


class GraphBatch:
    """A batch of graphs packed into one disjoint-union graph.

    Attributes
    ----------
    x:
        ``(ΣN_i, F)`` stacked node features: dense, or CSR when every
        member's features are CSR (a mix raises :class:`GraphError`).
    edge_index:
        ``(2, ΣE_i)`` offset edge indices.
    batch:
        ``(ΣN_i,)`` graph id per node.
    y:
        ``(num_graphs,)`` graph labels (when every member has a label).
    """

    def __init__(self, graphs: Sequence[Graph]):
        if not graphs:
            raise GraphError("GraphBatch requires at least one graph")
        feature_dims = {g.num_features for g in graphs}
        if len(feature_dims) != 1:
            raise GraphError(f"inconsistent feature dims in batch: {sorted(feature_dims)}")

        self.graphs = list(graphs)
        xs, edges, batch_ids = [], [], []
        offset = 0
        for gid, g in enumerate(self.graphs):
            xs.append(g.x)
            edges.append(g.edge_index + offset)
            batch_ids.append(np.full(g.num_nodes, gid, dtype=np.int64))
            offset += g.num_nodes
        sparse = [sp.issparse(x) for x in xs]
        if all(sparse):
            self.x = sp.vstack(xs, format="csr")
        elif any(sparse):
            raise GraphError("cannot batch CSR and dense node features together; "
                             "give every graph the same feature layout")
        else:
            self.x = np.concatenate(xs, axis=0)
        self.edge_index = np.concatenate(edges, axis=1)
        self.batch = np.concatenate(batch_ids)
        self.num_nodes = offset
        self.num_graphs = len(self.graphs)

        labels = [g.y for g in self.graphs]
        if all(isinstance(y, (int, np.integer)) for y in labels):
            self.y = np.array(labels, dtype=np.int64)
        else:
            self.y = None

    @property
    def num_edges(self) -> int:
        """Total edge count across the batch."""
        return self.edge_index.shape[1]

    @property
    def src(self) -> np.ndarray:
        return self.edge_index[0]

    @property
    def dst(self) -> np.ndarray:
        return self.edge_index[1]

    def node_offsets(self) -> np.ndarray:
        """Cumulative node offsets; graph ``i`` owns nodes ``[off[i], off[i+1])``."""
        sizes = [g.num_nodes for g in self.graphs]
        return np.cumsum([0, *sizes])

    def __len__(self) -> int:
        return self.num_graphs

    def __repr__(self) -> str:
        return (
            f"GraphBatch(num_graphs={self.num_graphs}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    @staticmethod
    def iter_minibatches(graphs: Sequence[Graph], batch_size: int,
                         rng: np.random.Generator | None = None):
        """Yield :class:`GraphBatch` mini-batches, optionally shuffled."""
        order = np.arange(len(graphs))
        if rng is not None:
            rng.shuffle(order)
        for start in range(0, len(graphs), batch_size):
            chunk = [graphs[i] for i in order[start:start + batch_size]]
            yield GraphBatch(chunk)
