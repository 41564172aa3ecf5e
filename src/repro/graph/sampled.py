"""Receptive-field extraction: batched k-hop in-subgraphs with id maps.

An L-layer message-passing network's prediction at node ``v`` depends only
on nodes with a directed path of length ≤ L *into* ``v`` (PAPER.md §II;
the same locality argument FlowX and relevant-walk search rely on).
:func:`extract_receptive_field` materializes that dependency cone — for a
*batch* of targets at once — as a :class:`SampledSubgraph`: a compact
relabeled graph plus the node/edge id maps needed to translate local
results (edge scores, flows, contexts) back to global ids.

The frontier expansion is one CSR row-slice per hop over the graph's
compiled :func:`~repro.sparse.cache.sparse_cache` aggregation operator
(rows are destinations, so ``adj[frontier].indices`` *is* the in-neighbor
set), replacing the per-hop ``np.isin`` scan over all ``E`` edges that the
original :func:`~repro.graph.utils.k_hop_subgraph` performed.

``k_hop_subgraph`` now returns a :class:`SampledSubgraph`; unpacking it as
the historical ``(node_ids, edge_mask)`` two-tuple still works for one
release behind a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import GraphError
from ..sparse import sparse_cache
from .data import Graph

__all__ = ["SampledSubgraph", "khop_in_nodes", "extract_receptive_field"]


def khop_in_nodes(graph: Graph, targets, num_hops: int) -> np.ndarray:
    """Sorted global ids of all nodes within ``num_hops`` backward steps of
    any target — the union of the targets' receptive fields.

    Batched backward BFS: each hop slices the rows of the cached CSR
    aggregation operator at the current frontier and takes the unseen
    column indices, so the cost per hop is proportional to the frontier's
    in-edges, not to the size of the graph.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.ndim != 1:
        raise GraphError(f"targets must be a 1-D sequence, got shape {targets.shape}")
    if targets.size == 0:
        raise GraphError("receptive-field extraction needs at least one target")
    if targets.min() < 0 or targets.max() >= graph.num_nodes:
        raise GraphError(
            f"target {int(targets.min() if targets.min() < 0 else targets.max())} "
            f"out of range for graph with {graph.num_nodes} nodes")
    if num_hops < 0:
        raise GraphError(f"num_hops must be non-negative, got {num_hops}")

    adj = sparse_cache(graph).adj  # rows = destinations, cols = sources
    indptr, indices = adj.indptr, adj.indices
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[targets] = True
    frontier = np.unique(targets)
    for _ in range(num_hops):
        if frontier.size == 0:
            break
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather the concatenated neighbor slices without a Python loop:
        # position i of the output reads indices[starts[row(i)] + offset(i)].
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        neighbors = indices[flat]
        fresh = neighbors[~visited[neighbors]]
        frontier = np.unique(fresh)
        visited[frontier] = True
    return np.flatnonzero(visited).astype(np.int64)


class SampledSubgraph:
    """A compact relabeled receptive-field subgraph with global id maps.

    Local node ``i`` is global node ``node_ids[i]`` (``node_ids`` is
    sorted, so the relabeling is monotone); local edge ``j`` is global
    edge ``edge_positions[j]``. The relabeled :class:`Graph` itself is
    built lazily — callers that only need the id maps (the historical
    ``k_hop_subgraph`` contract) never pay for feature slicing.

    Unpacking as the legacy ``(node_ids, edge_mask)`` two-tuple still
    works behind a :class:`DeprecationWarning`.
    """

    __slots__ = ("node_ids", "edge_mask", "targets", "num_hops",
                 "_source", "_graph", "_edge_positions", "_local_of")

    def __init__(self, source: Graph, node_ids: np.ndarray,
                 edge_mask: np.ndarray, targets=(), num_hops: int = 0):
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.edge_mask = np.asarray(edge_mask, dtype=bool)
        self.targets = tuple(int(t) for t in np.atleast_1d(np.asarray(targets, dtype=np.int64)))
        self.num_hops = int(num_hops)
        self._source = source
        self._graph: Graph | None = None
        self._edge_positions: np.ndarray | None = None
        self._local_of: np.ndarray | None = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the sampled subgraph."""
        return int(self.node_ids.size)

    @property
    def num_edges(self) -> int:
        """Number of global edges kept by the extraction."""
        return int(self.edge_positions.size)

    @property
    def edge_positions(self) -> np.ndarray:
        """Global edge index of each local edge, shape ``(e,)``."""
        if self._edge_positions is None:
            self._edge_positions = np.flatnonzero(self.edge_mask).astype(np.int64)
        return self._edge_positions

    @property
    def graph(self) -> Graph:
        """The relabeled induced subgraph (built on first access).

        Local edge order follows global edge order, so ``graph.edge_index``
        column ``j`` is global edge ``edge_positions[j]``.

        The subgraph's sparse cache is preloaded with the source graph's
        augmented in-degree sliced to the kept nodes. A boundary node (at
        distance exactly ``num_hops``) has lost in-edges, and GCN's
        renormalization scales its out-edges by its degree; with the
        preload every conv reads the source's degrees, so a forward over
        the subgraph equals the source's forward at every target row, and
        a structural edge removal on the subgraph counts against the full
        degree exactly as the same removal on the source does.
        Nested extractions compose: they slice an already-preloaded vector.
        """
        if self._graph is None:
            # Local import: graph.utils re-exports from this module.
            from .utils import induced_subgraph
            sub, node_ids, edge_mask = induced_subgraph(self._source, self.node_ids)
            # The extraction already fixed the node set; the induced edge
            # set over it must agree with the recorded mask.
            assert np.array_equal(node_ids, self.node_ids)
            assert np.array_equal(edge_mask, self.edge_mask)
            # The slice is exactly the augmented in-degree of each kept
            # node as the source sees it; D̂^{-1/2} derives from it.
            sparse_cache(sub)._deg = np.ascontiguousarray(
                sparse_cache(self._source).deg[self.node_ids])
            self._graph = sub
        return self._graph

    def local_index(self, global_ids) -> np.ndarray:
        """Local node id(s) for global node id(s); raises if absent."""
        if self._local_of is None:
            local = -np.ones(self._source.num_nodes, dtype=np.int64)
            local[self.node_ids] = np.arange(self.node_ids.size)
            self._local_of = local
        out = self._local_of[np.asarray(global_ids, dtype=np.int64)]
        if np.any(out < 0):
            missing = np.asarray(global_ids)[np.asarray(out < 0)]
            raise GraphError(
                f"global node(s) {np.atleast_1d(missing).tolist()} are not in "
                f"the sampled subgraph")
        return out

    @property
    def local_targets(self) -> tuple[int, ...]:
        """The extraction targets, relabeled into local ids."""
        return tuple(int(i) for i in np.atleast_1d(self.local_index(list(self.targets))))

    # ------------------------------------------------------------------
    # legacy (node_ids, edge_mask) tuple shim — one release
    # ------------------------------------------------------------------
    def astuple(self) -> tuple[np.ndarray, np.ndarray]:
        """The historical ``(node_ids, edge_mask)`` pair, without warning."""
        return self.node_ids, self.edge_mask

    def _warn_tuple(self) -> None:
        warnings.warn(  # repro: sunset[2.0]
            "unpacking k_hop_subgraph() as a (node_ids, edge_mask) tuple is "
            "deprecated; use the SampledSubgraph fields (.node_ids, "
            ".edge_mask, .graph, .edge_positions) instead",
            DeprecationWarning, stacklevel=3)

    def __iter__(self):
        self._warn_tuple()
        return iter((self.node_ids, self.edge_mask))

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index):
        self._warn_tuple()
        return (self.node_ids, self.edge_mask)[index]

    def __repr__(self) -> str:
        return (f"SampledSubgraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, targets={self.targets}, "
                f"num_hops={self.num_hops})")


def extract_receptive_field(graph: Graph, targets, num_hops: int) -> SampledSubgraph:
    """The union L-hop in-subgraph of ``targets`` as a :class:`SampledSubgraph`.

    The kept edge set matches the historical ``k_hop_subgraph`` contract:
    every global edge whose endpoints both lie in the union neighborhood.
    Extra edges contributed by one target's cone never change another
    target's local prediction — message passing at a node only reads its
    in-edges, which are all present for any node that can reach a target.
    A forward over the result's ``.graph`` is exact at every target (see
    :attr:`SampledSubgraph.graph`).
    """
    node_ids = khop_in_nodes(graph, targets, num_hops)
    in_set = np.zeros(graph.num_nodes, dtype=bool)
    in_set[node_ids] = True
    edge_mask = in_set[graph.src] & in_set[graph.dst]
    return SampledSubgraph(graph, node_ids, edge_mask,
                           targets=np.atleast_1d(np.asarray(targets, dtype=np.int64)),
                           num_hops=num_hops)
