"""Message-flow enumeration.

A *message flow* in an L-layer GNN is a sequence of L consecutive layer
edges (equivalently L+1 nodes): information leaves node ``v_0`` at layer 1,
moves along one edge per layer, and arrives at ``v_L`` after layer L
(paper §III). Layer edges include the per-node self-loops GNN layers use to
carry a node's own representation forward, in the id convention of
:mod:`repro.nn.message_passing` (data edges ``[0, E)``, self-loops
``[E, E+N)``).

:class:`FlowIndex` is the central data structure: the set of flows plus the
flow → layer-edge incidence used by Revelio's mask transformation (Eq. 3/5)
and by every flow-based baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..errors import FlowError
from ..graph import Graph
from ..nn.message_passing import augment_edges, num_layer_edges
from ..obs import PERF, span
from ..obs.names import SPAN_FLOW_ENUMERATE

__all__ = ["FlowIndex", "enumerate_flows", "count_flows"]

# Hard ceiling protecting memory on dense graphs; callers can raise it.
DEFAULT_MAX_FLOWS = 2_000_000


@dataclass
class FlowIndex:
    """All message flows of an L-layer GNN on one graph.

    Attributes
    ----------
    nodes:
        ``(F, L+1)`` int array; row ``f`` is the node sequence
        ``v_0 → … → v_L`` of flow ``f``.
    layer_edges:
        ``(F, L)`` int array; ``layer_edges[f, l]`` is the layer-edge id the
        flow uses at layer ``l+1`` (augmented id space of size ``E + N``).
    num_layers:
        ``L``.
    num_edges:
        Number of *data* edges ``E`` (self-loop ids start here).
    num_nodes:
        ``N``.
    target:
        Explained node id for node-classification flows, else ``None``.
    """

    nodes: np.ndarray
    layer_edges: np.ndarray
    num_layers: int
    num_edges: int
    num_nodes: int
    target: int | None = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64).reshape(-1, self.num_layers + 1)
        self.layer_edges = np.asarray(self.layer_edges, dtype=np.int64).reshape(-1, self.num_layers)
        if self.nodes.shape[0] != self.layer_edges.shape[0]:
            raise FlowError("nodes / layer_edges row mismatch")
        # Lazily built caches — the incidence structure is fixed, so the
        # gather/scatter index arrays used by aggregate_scores (rebuilt on
        # every mask-training epoch otherwise), the FlowIncidence view and
        # the used-layer-edge mask are computed once and reused.
        self._gather_index: np.ndarray | None = None
        self._scatter_index: np.ndarray | None = None
        self._incidence = None
        self._used_layer_edges: np.ndarray | None = None
        self._used_layer_edge_ids: list[np.ndarray] | None = None

    def _aggregation_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gather, scatter)`` index arrays for flow → layer-edge sums.

        ``gather`` repeats each flow id once per layer (layer-major);
        ``scatter`` maps those rows to flattened ``l * (E+N) + edge_id``
        slots. Built on first use and reused by every later call.
        """
        if self._gather_index is None or self._scatter_index is None:
            width = self.num_layer_edges
            self._gather_index = np.tile(np.arange(self.num_flows), self.num_layers)
            self._scatter_index = (
                np.repeat(np.arange(self.num_layers), self.num_flows) * width
                + self.layer_edges.T.reshape(-1)
            )
        return self._gather_index, self._scatter_index

    def incidence(self):
        """Cached :class:`repro.flows.incidence.FlowIncidence` view."""
        if self._incidence is None:
            from .incidence import FlowIncidence

            self._incidence = FlowIncidence(self)
        return self._incidence

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        """Number of enumerated flows ``|F|``."""
        return self.nodes.shape[0]

    @property
    def num_layer_edges(self) -> int:
        """Size of the per-layer edge-id space (``E + N``)."""
        return num_layer_edges(self.num_edges, self.num_nodes)

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:
        tgt = f", target={self.target}" if self.target is not None else ""
        return (
            f"FlowIndex(num_flows={self.num_flows}, num_layers={self.num_layers}, "
            f"num_edges={self.num_edges}, num_nodes={self.num_nodes}{tgt})"
        )

    # ------------------------------------------------------------------
    # incidence operations (Eq. 3 / Eq. 7)
    # ------------------------------------------------------------------
    def flat_incidence_index(self) -> np.ndarray:
        """``(F * L,)`` flattened scatter targets ``l * (E+N) + edge_id``.

        Row-major over flows then layers; used to aggregate flow scores to
        layer edges in a single scatter.
        """
        width = self.num_layer_edges
        return (np.arange(self.num_layers)[None, :] * width + self.layer_edges).reshape(-1)

    def aggregate_scores(self, flow_scores: Tensor) -> Tensor:
        """Sum flow scores onto layer edges (Eq. 3, ``f`` = summation).

        Parameters
        ----------
        flow_scores:
            ``(F,)`` tensor of per-flow scores (e.g. ``tanh(M)``).

        Returns
        -------
        Tensor
            ``(L, E+N)`` layer-edge score accumulation, differentiable
            w.r.t. ``flow_scores``.
        """
        if flow_scores.shape[0] != self.num_flows:
            raise FlowError(
                f"flow_scores has {flow_scores.shape[0]} entries, expected {self.num_flows}"
            )
        width = self.num_layer_edges
        gather, scatter = self._aggregation_indices()
        # tiled is ordered layer-major: flow block per layer.
        tiled = flow_scores.gather_rows(gather)
        flat = tiled.scatter_add(scatter, self.num_layers * width)
        return flat.reshape(self.num_layers, width)

    def aggregate_scores_np(self, flow_scores: np.ndarray) -> np.ndarray:
        """Numpy-only version of :meth:`aggregate_scores` (no tape).

        Dispatches through the cached per-layer incidence plans (one
        ``spmm`` kernel call per layer) instead of a flat ``np.add.at``.
        """
        return self.incidence().aggregate(np.asarray(flow_scores, dtype=np.float64))

    def used_layer_edges(self) -> np.ndarray:
        """Boolean ``(L, E+N)``: layer edges that carry at least one flow.

        The sparsity regularizer (Eq. 8) averages masks over exactly these
        entries ("skipping those that are unused by GNN layers"). Computed
        once per index — the structure is fixed — and shared by every
        optimize loop and mask-transform call that reuses the index.
        """
        if self._used_layer_edges is None:
            used = np.zeros((self.num_layers, self.num_layer_edges), dtype=bool)
            for l in range(self.num_layers):
                used[l, self.layer_edges[:, l]] = True
            self._used_layer_edges = used
        return self._used_layer_edges

    def used_layer_edge_ids(self) -> list[np.ndarray]:
        """Per layer, the sorted ids of :meth:`used_layer_edges`.

        The flow trim of the masked forward: layer ``l`` runs over exactly
        these layer edges — every in-edge of each node within ``L − l``
        hops of the flows' endpoints. Cached, so the arrays keep their
        identity and the per-layer sub-caches compiled for them
        (:meth:`GraphSparseCache.restrict
        <repro.sparse.GraphSparseCache.restrict>`) are built once.
        """
        if self._used_layer_edge_ids is None:
            self._used_layer_edge_ids = [np.flatnonzero(row)
                                         for row in self.used_layer_edges()]
        return self._used_layer_edge_ids

    def flows_per_layer_edge(self) -> np.ndarray:
        """``(L, E+N)`` count of flows through each layer edge."""
        return self.incidence().flows_per_layer_edge()

    def flows_through(self, layer: int, layer_edge: int) -> np.ndarray:
        """Indices of flows using ``layer_edge`` at 1-based ``layer``.

        This is the flow set :math:`F_{?\\{l-1\\}ij*}` of Eq. (3).
        """
        if not 1 <= layer <= self.num_layers:
            raise FlowError(f"layer must be in [1, {self.num_layers}], got {layer}")
        return np.flatnonzero(self.layer_edges[:, layer - 1] == layer_edge)

    # ------------------------------------------------------------------
    # id helpers
    # ------------------------------------------------------------------
    def is_self_loop(self, layer_edge: int) -> bool:
        """Whether a layer-edge id denotes a self-loop."""
        return layer_edge >= self.num_edges

    def layer_edge_endpoints(self, layer_edge: int, edge_index: np.ndarray) -> tuple[int, int]:
        """``(src, dst)`` for a layer-edge id given the graph's edges."""
        if layer_edge < self.num_edges:
            return int(edge_index[0, layer_edge]), int(edge_index[1, layer_edge])
        v = layer_edge - self.num_edges
        return v, v

    def describe_flow(self, f: int) -> str:
        """Human-readable ``v0 -> v1 -> … -> vL`` string for flow ``f``."""
        return " -> ".join(str(int(v)) for v in self.nodes[f])


def _incoming_lists(graph: Graph) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-node arrays of (source node, layer-edge id) over augmented edges."""
    src, dst = augment_edges(graph.edge_index, graph.num_nodes)
    edge_ids = np.arange(src.shape[0])
    order = np.argsort(dst, kind="stable")
    src_sorted, dst_sorted, ids_sorted = src[order], dst[order], edge_ids[order]
    bounds = np.searchsorted(dst_sorted, np.arange(graph.num_nodes + 1))
    in_src = [src_sorted[bounds[v]:bounds[v + 1]] for v in range(graph.num_nodes)]
    in_ids = [ids_sorted[bounds[v]:bounds[v + 1]] for v in range(graph.num_nodes)]
    return in_src, in_ids


def enumerate_flows(graph: Graph, num_layers: int, target: int | None = None,
                    max_flows: int = DEFAULT_MAX_FLOWS) -> FlowIndex:
    """Enumerate all message flows of an ``num_layers``-layer GNN.

    Parameters
    ----------
    graph:
        Input graph (data edges only; self-loops are added internally).
    num_layers:
        GNN depth ``L``.
    target:
        For node classification, the explained node: only flows *ending* at
        it are enumerated (the prediction depends on nothing else). ``None``
        enumerates every flow (graph classification).
    max_flows:
        Safety ceiling; exceeded enumeration raises :class:`FlowError`.
    """
    if num_layers < 1:
        raise FlowError("num_layers must be >= 1")
    if target is not None and not 0 <= target < graph.num_nodes:
        raise FlowError(f"target {target} out of range")

    PERF.flow_enumerations += 1
    with span(SPAN_FLOW_ENUMERATE, num_layers=num_layers) as sp:
        index = _enumerate(graph, num_layers, target, max_flows)
        if sp is not None:
            sp.set(num_flows=index.num_flows)
    return index


def _enumerate(graph: Graph, num_layers: int, target: int | None,
               max_flows: int) -> FlowIndex:
    in_src, in_ids = _incoming_lists(graph)

    # Grow paths backwards from the final node(s): a partial path of length
    # k is a sequence ending at layer L; we prepend incoming edges until the
    # path covers all L layers.
    if target is None:
        ends = np.arange(graph.num_nodes)
    else:
        ends = np.array([target])

    # nodes_rev[:, 0] is v_L, nodes_rev[:, k] is v_{L-k}.
    nodes_rev = ends[:, None]
    edges_rev = np.zeros((ends.shape[0], 0), dtype=np.int64)
    for _ in range(num_layers):
        heads = nodes_rev[:, -1]
        counts = np.array([in_src[v].shape[0] for v in heads])
        total = int(counts.sum())
        if total > max_flows:
            raise FlowError(
                f"flow enumeration exceeded max_flows={max_flows}; "
                "reduce graph size or raise the limit"
            )
        repeat_idx = np.repeat(np.arange(heads.shape[0]), counts)
        new_heads = np.concatenate([in_src[v] for v in heads]) if total else np.zeros(0, dtype=np.int64)
        new_edges = np.concatenate([in_ids[v] for v in heads]) if total else np.zeros(0, dtype=np.int64)
        nodes_rev = np.concatenate([nodes_rev[repeat_idx], new_heads[:, None]], axis=1)
        edges_rev = np.concatenate([edges_rev[repeat_idx], new_edges[:, None]], axis=1)

    nodes = nodes_rev[:, ::-1]
    layer_edges = edges_rev[:, ::-1]
    return FlowIndex(
        nodes=nodes,
        layer_edges=layer_edges,
        num_layers=num_layers,
        num_edges=graph.num_edges,
        num_nodes=graph.num_nodes,
        target=target,
    )


def count_flows(graph: Graph, num_layers: int, target: int | None = None) -> int:
    """Count flows without enumerating them (via sparse adjacency powers).

    Used for capacity planning and as an independent oracle in tests. The
    count only needs ``1ᵀ Aᴸ e_target`` (or ``1ᵀ Aᴸ 1``), so we iterate L
    sparse mat-vec products instead of materializing a dense ``N × N``
    matrix power — O(L · nnz) time, O(N) extra memory.
    """
    import scipy.sparse as sp

    src, dst = augment_edges(graph.edge_index, graph.num_nodes)
    n = graph.num_nodes
    adj = sp.csr_matrix(
        (np.ones(src.shape[0]), (src, dst)), shape=(n, n)
    )
    if target is None:
        v = np.ones(n)
    else:
        v = np.zeros(n)
        v[target] = 1.0
    # paths[:, t].sum() == 1ᵀ Aᴸ e_t, accumulated right-to-left.
    for _ in range(num_layers):
        v = adj @ v
    return int(round(v.sum()))
