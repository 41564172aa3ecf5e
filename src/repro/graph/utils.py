"""Graph utilities: degrees, subgraphs, k-hop neighborhoods, conversions.

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
from .sampled import SampledSubgraph, extract_receptive_field

__all__ = [
    "coalesce_edges",
    "sparse_cache",
    "to_csr",
    "to_undirected",
    "add_reverse_edges",
    "k_hop_subgraph",
    "SampledSubgraph",
    "extract_receptive_field",
    "induced_subgraph",
    "connected_components",
    "edge_list",
    "from_networkx",
    "to_networkx",
]


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


def add_reverse_edges(edge_index: np.ndarray) -> np.ndarray:
    """Return edge_index with reversed edges appended (then coalesced)."""
    edge_index = np.asarray(edge_index, dtype=np.int64)
    both = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    return coalesce_edges(both)


def to_undirected(graph: Graph) -> Graph:
    """Return a copy with edges symmetrized."""
    g = graph.copy()
    g.edge_index = add_reverse_edges(g.edge_index)
    return g


def k_hop_subgraph(graph: Graph, node: int, num_hops: int) -> SampledSubgraph:
    """Nodes and edges reachable *into* ``node`` within ``num_hops`` steps.

    Follows edges backwards (an L-layer GNN's prediction at ``node`` depends
    only on nodes with a directed path of length ≤ L *to* it). Returns a
    :class:`SampledSubgraph`: ``node_ids`` are the neighborhood's nodes and
    ``edge_mask`` marks original edges whose endpoints both lie in it. The
    batched generalization is :func:`extract_receptive_field`.
    """
    return extract_receptive_field(graph, [int(node)], num_hops)


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Subgraph induced by ``nodes``, with relabelled ids.

    Returns ``(subgraph, node_ids, edge_mask)`` where ``node_ids[i]`` is the
    original id of new node ``i`` and ``edge_mask`` selects the original
    edges kept. Labels and masks are sliced accordingly; ``motif_edges`` are
    relabelled when present.
    """
    node_ids = np.asarray(sorted(set(int(n) for n in np.asarray(nodes).reshape(-1))), dtype=np.int64)
    if node_ids.size and (node_ids.min() < 0 or node_ids.max() >= graph.num_nodes):
        raise GraphError("induced_subgraph received out-of-range node ids")
    remap = -np.ones(graph.num_nodes, dtype=np.int64)
    remap[node_ids] = np.arange(node_ids.size)
    edge_mask = (remap[graph.src] >= 0) & (remap[graph.dst] >= 0)
    new_edges = np.stack([remap[graph.src[edge_mask]], remap[graph.dst[edge_mask]]])

    motif = None
    if graph.motif_edges is not None:
        motif = frozenset(
            (int(remap[u]), int(remap[v]))
            for u, v in graph.motif_edges
            if remap[u] >= 0 and remap[v] >= 0
        )
    y = graph.y[node_ids] if isinstance(graph.y, np.ndarray) else graph.y
    sub = Graph(
        edge_index=new_edges,
        x=graph.x[node_ids],
        y=y,
        num_nodes=node_ids.size,
        train_mask=None if graph.train_mask is None else graph.train_mask[node_ids],
        val_mask=None if graph.val_mask is None else graph.val_mask[node_ids],
        test_mask=None if graph.test_mask is None else graph.test_mask[node_ids],
        motif_edges=motif,
        meta=dict(graph.meta),
    )
    return sub, node_ids, edge_mask


def connected_components(graph: Graph) -> np.ndarray:
    """Weakly-connected component label per node."""
    adj = to_csr(graph)
    n_components, labels = sp.csgraph.connected_components(adj, directed=True, connection="weak")
    return labels


def edge_list(graph: Graph) -> list[tuple[int, int]]:
    """Edges as a list of ``(src, dst)`` tuples."""
    return list(zip(graph.src.tolist(), graph.dst.tolist()))


def from_networkx(nx_graph, x: np.ndarray | None = None, y=None) -> Graph:
    """Convert a networkx (Di)Graph into a :class:`Graph`.

    Undirected graphs contribute both edge directions, matching the paper's
    treatment of benchmark datasets as directed edge pairs.
    """
    import networkx as nx

    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = []
    for u, v in nx_graph.edges():
        edges.append((index[u], index[v]))
        if not nx_graph.is_directed():
            edges.append((index[v], index[u]))
    edge_index = (
        np.array(edges, dtype=np.int64).T if edges else np.zeros((2, 0), dtype=np.int64)
    )
    edge_index = coalesce_edges(edge_index)
    if x is None:
        x = np.ones((len(nodes), 1))
    return Graph(edge_index=edge_index, x=x, y=y, num_nodes=len(nodes))


def to_networkx(graph: Graph):
    """Convert to a networkx DiGraph (node ids preserved)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(edge_list(graph))
    return g
