"""Graph utilities: edge coalescing, induced subgraphs, components.

These mirror the PyG ``torch_geometric.utils`` helpers the paper's code
relies on, implemented on numpy / scipy sparse.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
# Re-exported: the compiled scatter-structure cache lives with the sparse
# core but is naturally discovered next to the other graph helpers.
from ..sparse import sparse_cache  # noqa: F401
from .data import Graph
from .sampled import _relabel

# induced_subgraph, connected_components and to_csr are test oracles
# (receptive-field extraction, dataset connectivity), not public API.
__all__ = ["coalesce_edges", "sparse_cache"]


def coalesce_edges(edge_index: np.ndarray) -> np.ndarray:
    """Sort edges lexicographically and drop duplicates."""
    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.size == 0:
        return edge_index.reshape(2, 0)
    pairs = np.unique(edge_index.T, axis=0)
    return pairs.T


def to_csr(graph: Graph, weights: np.ndarray | None = None) -> sp.csr_matrix:
    """Adjacency as scipy CSR; ``A[i, j] = 1`` (or weight) for edge i→j."""
    data = np.ones(graph.num_edges) if weights is None else np.asarray(weights, dtype=np.float64)
    return sp.csr_matrix(
        (data, (graph.src, graph.dst)), shape=(graph.num_nodes, graph.num_nodes)
    )


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Subgraph induced by ``nodes``, with relabelled ids.

    Returns ``(subgraph, node_ids, edge_mask)`` where ``node_ids[i]`` is the
    original id of new node ``i`` and ``edge_mask`` selects the original
    edges kept. Labels and masks are sliced accordingly; ``motif_edges`` are
    relabelled when present.
    """
    node_ids = np.unique(np.asarray(nodes, dtype=np.int64).reshape(-1))
    if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= graph.num_nodes):
        raise GraphError("induced_subgraph received out-of-range node ids")
    inside = np.zeros(graph.num_nodes, dtype=bool)
    inside[node_ids] = True
    edge_mask = inside[graph.src] & inside[graph.dst]
    sub = _relabel(graph, node_ids, np.flatnonzero(edge_mask))
    return sub, node_ids, edge_mask


def connected_components(graph: Graph) -> np.ndarray:
    """Weakly-connected component label per node."""
    adj = to_csr(graph)
    n_components, labels = sp.csgraph.connected_components(adj, directed=True, connection="weak")
    return labels
