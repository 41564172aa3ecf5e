"""Receptive-field extraction: one backward BFS, one context type.

An L-layer message-passing network's prediction at node ``v`` depends only
on nodes with a directed path of length ≤ L *into* ``v`` (PAPER.md §II;
the same locality argument FlowX and relevant-walk search rely on).
:func:`extract_receptive_field` materializes that dependency cone — for a
*batch* of targets at once — as a :class:`SampledSubgraph`: a compact
relabeled graph, the node/edge id maps that translate local results (edge
scores, flows) back to global ids, and each kept node's hop distance to
the targets. It is every explainer's context: a node explanation's
receptive field, a link's union field, a group learner's fit instance,
and (:meth:`SampledSubgraph.whole`) a graph-level instance.

The one backward BFS slices the rows of the graph's compiled
:func:`~repro.sparse.cache.sparse_cache` aggregation operator per hop
(rows are destinations, so ``adj[frontier].indices`` *is* the in-neighbor
set) and records the hop at which each node is reached. The node set is
the reached nodes; per-layer trims read the recorded distances.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..sparse import sparse_cache
from .data import Graph

__all__ = ["SampledSubgraph", "khop_in_nodes", "extract_receptive_field"]


def _hop_distances(graph: Graph, targets, num_hops: int) -> np.ndarray:
    """``(N,)`` backward hop distance of each node to the nearest target,
    ``-1`` beyond ``num_hops``.

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
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[targets] = 0
    frontier = np.unique(targets)
    for hop in range(1, num_hops + 1):
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
        frontier = np.unique(neighbors[dist[neighbors] < 0])
        dist[frontier] = hop
    return dist


def khop_in_nodes(graph: Graph, targets, num_hops: int) -> np.ndarray:
    """Sorted global ids of all nodes within ``num_hops`` backward steps of
    any target — the union of the targets' receptive fields."""
    return np.flatnonzero(_hop_distances(graph, targets, num_hops) >= 0)


def _local_ids(node_ids: np.ndarray, global_ids) -> np.ndarray:
    """Position of each global id in the sorted ``node_ids``, ``-1`` if absent."""
    ids = np.asarray(global_ids, dtype=np.int64)
    if node_ids.size == 0:
        return np.full(ids.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(node_ids, ids), node_ids.size - 1)
    return np.where(node_ids[pos] == ids, pos, -1)


def _relabel(graph: Graph, node_ids: np.ndarray, edge_positions: np.ndarray) -> Graph:
    """The subgraph of ``graph`` on the sorted ``node_ids`` and the edges at
    ``edge_positions`` (both endpoints among ``node_ids``), ids relabeled.

    Local node ``i`` is ``node_ids[i]`` and local edge ``j`` is
    ``edge_positions[j]``; features, labels and split masks are sliced,
    and ``motif_edges`` keep the pairs with both endpoints kept.
    """
    motif = None
    if graph.motif_edges is not None:
        local = _local_ids(node_ids, np.array(list(graph.motif_edges),
                                              dtype=np.int64).reshape(-1, 2))
        motif = frozenset(map(tuple, local[(local >= 0).all(axis=1)].tolist()))
    return Graph(
        edge_index=np.searchsorted(node_ids, graph.edge_index[:, edge_positions]),
        x=graph.x[node_ids],
        y=graph.y[node_ids] if isinstance(graph.y, np.ndarray) else graph.y,
        num_nodes=node_ids.size,
        train_mask=None if graph.train_mask is None else graph.train_mask[node_ids],
        val_mask=None if graph.val_mask is None else graph.val_mask[node_ids],
        test_mask=None if graph.test_mask is None else graph.test_mask[node_ids],
        motif_edges=motif,
        meta=dict(graph.meta),
    )


class SampledSubgraph:
    """A receptive field: a compact relabeled subgraph with global id maps.

    Attributes
    ----------
    node_ids:
        ``(n,)`` sorted global ids; local node ``i`` is ``node_ids[i]``.
    edge_positions:
        ``(e,)`` sorted global edge positions; local edge ``j`` is
        ``edge_positions[j]``.
    hops:
        ``(n,)`` backward hop distance of each kept node to the nearest
        target (``0`` everywhere for :meth:`whole`, whose readout pools
        every row).
    targets, num_hops:
        The extraction's global targets and depth.
    source_key:
        An opaque content key of the source graph, set by the caches that
        key on this field and kept so it is computed once.

    The relabeled :attr:`subgraph` is built on first access; from then on
    the field holds no reference to the source graph and no array sized
    by it.
    """

    __slots__ = ("node_ids", "edge_positions", "hops", "targets", "num_hops",
                 "source_key", "_source", "_subgraph")

    def __init__(self, source: Graph | None, node_ids: np.ndarray, edge_positions: np.ndarray,
                 hops: np.ndarray, targets=(), num_hops: int = 0):
        self.node_ids = node_ids
        self.edge_positions = edge_positions
        self.hops = hops
        self.targets = tuple(int(t) for t in np.atleast_1d(np.asarray(targets, dtype=np.int64)))
        self.num_hops = int(num_hops)
        self.source_key = None
        self._source: Graph | None = source
        self._subgraph: Graph | None = None

    @classmethod
    def whole(cls, graph: Graph) -> "SampledSubgraph":
        """The whole of ``graph`` as its own context, with no target (a
        graph-level prediction); :attr:`subgraph` is ``graph`` itself."""
        field = cls(None, np.arange(graph.num_nodes), np.arange(graph.num_edges),
                    np.zeros(graph.num_nodes, dtype=np.int64))
        field._subgraph = graph
        return field

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the sampled subgraph."""
        return int(self.node_ids.size)

    @property
    def num_edges(self) -> int:
        """Number of global edges kept by the extraction."""
        return int(self.edge_positions.size)

    @property
    def subgraph(self) -> Graph:
        """The relabeled induced subgraph (built on first access).

        Local edge order follows global edge order, so
        ``subgraph.edge_index`` column ``j`` is global edge
        ``edge_positions[j]``.

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
        if self._subgraph is None:
            source = self._source
            sub = _relabel(source, self.node_ids, self.edge_positions)
            # The slice is exactly the augmented in-degree of each kept
            # node as the source sees it; D̂^{-1/2} derives from it.
            sparse_cache(sub)._deg = np.ascontiguousarray(
                sparse_cache(source).deg[self.node_ids])
            self._subgraph, self._source = sub, None
        return self._subgraph

    def local_index(self, global_ids) -> np.ndarray:
        """Local node id(s) for global node id(s); raises :class:`GraphError`
        for any id not in the field (negative and out-of-range ids too)."""
        out = _local_ids(self.node_ids, global_ids)
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

    @property
    def local_target(self) -> int | None:
        """The one target's local id, or ``None`` for :meth:`whole`;
        raises :class:`GraphError` on a field of several targets."""
        if len(self.targets) > 1:
            raise GraphError(f"a field of {len(self.targets)} targets has no single "
                             f"local target; read local_targets")
        return self.local_targets[0] if self.targets else None

    def __repr__(self) -> str:
        return (f"SampledSubgraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, targets={self.targets}, "
                f"num_hops={self.num_hops})")


def extract_receptive_field(graph: Graph, targets, num_hops: int) -> SampledSubgraph:
    """The union L-hop in-subgraph of ``targets`` as a :class:`SampledSubgraph`.

    The kept edge set is every global edge whose endpoints both lie in the
    union neighborhood. Extra edges contributed by one target's cone never
    change another target's local prediction — message passing at a node
    only reads its in-edges, which are all present for any node that can
    reach a target. A forward over the result's ``.subgraph`` is exact at
    every target (see :attr:`SampledSubgraph.subgraph`).
    """
    dist = _hop_distances(graph, targets, num_hops)
    inside = dist >= 0
    node_ids = np.flatnonzero(inside)
    edge_positions = np.flatnonzero(inside[graph.src] & inside[graph.dst])
    return SampledSubgraph(graph, node_ids, edge_positions, dist[node_ids],
                           targets=targets, num_hops=num_hops)
