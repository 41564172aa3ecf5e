"""Per-graph sparse-structure caches and identity-keyed plan memos.

A :class:`~repro.graph.data.Graph`'s connectivity is immutable in practice
— every mutation path (``with_edges``, ``copy``, dataset regeneration)
builds a *new* ``edge_index`` array — so the compiled scatter structure can
be attached to the graph object itself and validated by array identity, a
pointer comparison instead of a hash of ``O(E)`` bytes per forward.

Three entry points, from most to least context (plus
:meth:`GraphSparseCache.restrict`, a per-layer sub-cache for the
flow-trimmed forward):

:func:`sparse_cache`
    Attach/fetch a :class:`GraphSparseCache` on a graph (or graph-batch)
    object itself. The first call on a graph compiles the augmented edge
    arrays, the destination :class:`~repro.sparse.structure.SegmentPlan`
    and (lazily) the GCN degree vectors; every later call —
    across all ``B`` mask variants of a batched forward, across layers,
    across explainers, across training epochs — returns the same object
    for free.
:func:`edge_cache`
    The same compiled structure keyed on the *identity* of a bare
    ``(edge_index, num_nodes)`` pair, for call sites (the conv layers'
    autograd forwards) that receive arrays rather than a graph object.
    A training loop calling ``forward_graph`` every epoch passes the
    same ``edge_index`` array each time, so the memo hits after epoch 0.
:func:`plan_for`
    An identity-keyed memo for a single :class:`SegmentPlan` over any
    ``(index, num_rows)`` — the fallback the plan-backed autograd
    primitives (``Tensor.scatter_add`` / ``gather_rows`` /
    ``segment_softmax``) use when no explicit plan is threaded in, so
    even un-plumbed call sites stop paying a fresh ``argsort`` (and the
    serial ``np.add.at``) per call.

Both memos hold only weak references to the key arrays: when the caller
drops the array, the compiled structure is evicted with it, so the memo
can never pin dead ``O(E)`` arrays or grow without bound.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from ..errors import KernelError
from .structure import SegmentPlan, augmented_edges

__all__ = ["GraphSparseCache", "sparse_cache", "edge_cache", "plan_for",
           "feature_csr", "feature_dense", "FEATURE_DENSITY_CEILING"]

#: Densest feature matrix worth storing sparse: above this, BLAS on the
#: dense array beats sparse matvecs, so a :class:`~repro.graph.Graph`
#: stores such features dense and :func:`feature_csr` memoizes ``None``.
FEATURE_DENSITY_CEILING = 0.05


class GraphSparseCache:
    """Compiled CSR/CSC scatter structures for one graph's connectivity.

    Attributes
    ----------
    src, dst:
        ``(E+N,)`` endpoints of the augmented (self-loop-appended) edge set
        — the layer-edge id space shared by convs, masks and flows. A
        :meth:`restrict` sub-cache holds only its kept layer edges, ``src``
        numbered by the layer's input rows and ``dst`` by its output rows.
    num_nodes, num_inputs:
        The rows ``dst`` and ``src`` index: both ``N``, or a sub-cache's
        output and input row counts.
    dst_in:
        ``dst`` numbered by input row (GAT reads destination states there);
        ``dst`` itself unless a sub-cache renumbers rows.
    dst_plan:
        :class:`SegmentPlan` over ``dst`` — the message-aggregation scatter
        every conv layer dispatches through.
    src_plan, dst_in_plan:
        :class:`SegmentPlan` over ``src`` and ``dst_in`` into the input
        rows (lazy) — the adjoint structures: the backward pass of a
        per-edge gather ``x[src]`` is a scatter-add over ``src``, so
        training needs both directions compiled.
    deg:
        ``(N,)`` float augmented in-degree ``D̂`` of the intact adjacency
        (lazy; read straight off ``dst_plan.counts``, no second bincount).
        A receptive-field extraction preloads it with the source graph's
        degrees, so structural edge removal counts against the full degree.
    deg_inv_sqrt:
        ``(N,)`` symmetric-renormalization vector ``D̂^{-1/2}`` (lazy,
        derived from ``deg``).
    edge_norm:
        ``(E+N,)`` per-layer-edge GCN coefficient
        ``deg_inv_sqrt[src] · deg_inv_sqrt[dst]`` (lazy) — the vector the
        normalized message path multiplies into every message, hoisted out
        of the per-forward hot loop. A sub-cache slices its parent's.
    self_loop:
        ``(A, 1)`` float flag, 1 on self-loop layer edges (lazy) — GIN's
        ``(1 + eps)`` block, wherever the kept self-loops sit.
    adj / adj_t, adj_norm / adj_norm_t:
        Cached ``(N, N)`` CSR aggregation operators over the augmented
        edge set (lazy): unit-weight for sum aggregation (GIN, unnormalized
        GCN) and ``edge_norm``-weighted for the renormalized GCN rule, each
        with its transpose precompiled. The unmasked training forward is
        one ``spmm`` over these — forward through ``adj*``, backward
        through ``adj*_t`` — instead of a gather / scale / scatter chain
        that materializes ``(E+N, F)`` intermediates four times per layer.
    """

    __slots__ = ("edge_index", "num_nodes", "num_inputs", "src", "dst", "dst_in",
                 "dst_plan", "_edge_ids", "renumbered", "_parent", "_src_plan",
                 "_dst_in_plan", "_deg", "_deg_inv_sqrt", "_edge_norm", "_self_loop",
                 "_adj", "_adj_t", "_adj_norm", "_adj_norm_t", "__weakref__")

    def __init__(self, edge_index: np.ndarray, num_nodes: int):
        num_nodes = int(num_nodes)
        src, dst = augmented_edges(edge_index, num_nodes)
        self._setup(edge_index, src, dst, dst, num_nodes, num_nodes)

    def _setup(self, edge_index: np.ndarray, src: np.ndarray, dst: np.ndarray,
               dst_in: np.ndarray, num_nodes: int, num_inputs: int,
               parent: "GraphSparseCache | None" = None,
               edge_ids: np.ndarray | None = None) -> None:
        self.edge_index = edge_index
        self.num_nodes, self.num_inputs = num_nodes, num_inputs
        self.src, self.dst, self.dst_in = src, dst, dst_in
        self.dst_plan = SegmentPlan(dst, num_nodes)
        self._edge_ids = edge_ids   # a restrict() sub-cache's kept layer edges
        #: Whether a sub-cache numbers its rows apart from the graph's nodes.
        self.renumbered = dst_in is not dst or num_inputs != num_nodes
        self._parent = parent
        self._src_plan: SegmentPlan | None = None
        self._dst_in_plan = None if self.renumbered else self.dst_plan
        self._deg: np.ndarray | None = None
        self._deg_inv_sqrt: np.ndarray | None = None
        self._edge_norm: np.ndarray | None = None
        self._self_loop: np.ndarray | None = None
        self._adj: sp.csr_matrix | None = None
        self._adj_t: sp.csr_matrix | None = None
        self._adj_norm: sp.csr_matrix | None = None
        self._adj_norm_t: sp.csr_matrix | None = None

    @property
    def src_plan(self) -> SegmentPlan:
        if self._src_plan is None:
            self._src_plan = SegmentPlan(self.src, self.num_inputs)
        return self._src_plan

    @property
    def dst_in_plan(self) -> SegmentPlan:
        if self._dst_in_plan is None:
            self._dst_in_plan = SegmentPlan(self.dst_in, self.num_inputs)
        return self._dst_in_plan

    @property
    def deg(self) -> np.ndarray:
        # dst_plan.counts *is* the augmented in-degree.
        if self._parent is not None:
            return self._parent.deg
        return self.dst_plan.counts if self._deg is None else self._deg

    @property
    def deg_inv_sqrt(self) -> np.ndarray:
        if self._deg_inv_sqrt is None:
            self._deg_inv_sqrt = 1.0 / np.sqrt(np.maximum(self.deg, 1.0))
        return self._deg_inv_sqrt

    @property
    def edge_norm(self) -> np.ndarray:
        if self._edge_norm is None:
            if self._parent is not None:
                self._edge_norm = self._parent.edge_norm[self._edge_ids]
            else:
                d = self.deg_inv_sqrt
                self._edge_norm = d[self.src] * d[self.dst]
        return self._edge_norm

    @property
    def self_loop(self) -> np.ndarray:
        if self._self_loop is None:
            ids = np.arange(self.src.shape[0]) if self._edge_ids is None else self._edge_ids
            self._self_loop = (ids >= self.edge_index.shape[1]).astype(np.float64)[:, None]
        return self._self_loop

    def restrict(self, edge_ids: np.ndarray, in_rows: np.ndarray | None = None,
                 out_rows: np.ndarray | None = None) -> "GraphSparseCache":
        """The cache of one trimmed layer: kept layer edges, renumbered rows.

        A flow-trimmed forward runs layer ``l`` over only the layer edges a
        message flow crosses there (:meth:`FlowIndex.used_layer_edge_ids
        <repro.flows.FlowIndex.used_layer_edge_ids>`), reading only the
        rows ``in_rows`` and writing only the rows ``out_rows`` (sorted
        node ids; ``None`` keeps every node). The sub-cache numbers ``src``
        and ``dst_in`` by position in ``in_rows`` and ``dst`` by position
        in ``out_rows``. Kept edges stay in id order and both maps keep
        row order, so every output row sums the same messages in the same
        order as this cache. ``edge_norm`` is this cache's slice (its
        degrees are the parent's, a context's preloaded ones), so GCN's
        coefficients match bit for bit. Built once per trimmed forward;
        record/replay runs that forward once per explanation.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        src, dst = self.src[edge_ids], self.dst[edge_ids]
        sub = GraphSparseCache.__new__(GraphSparseCache)
        dst_out = _renumber(dst, out_rows, "write")
        dst_in = dst_out if in_rows is None and out_rows is None \
            else _renumber(dst, in_rows, "read")
        sub._setup(self.edge_index, _renumber(src, in_rows, "read"), dst_out, dst_in,
                   _row_count(out_rows, self.num_nodes), _row_count(in_rows, self.num_nodes),
                   parent=self, edge_ids=edge_ids)
        return sub

    def _aggregator(self, weights: np.ndarray) -> sp.csr_matrix:
        # out[dst] += w · x[src]  ⇒  rows are destinations, cols sources.
        return sp.csr_matrix((weights, (self.dst, self.src)),
                             shape=(self.num_nodes, self.num_inputs))

    @property
    def adj(self) -> sp.csr_matrix:
        if self._adj is None:
            self._adj = self._aggregator(np.ones(self.src.shape[0]))
        return self._adj

    @property
    def adj_t(self) -> sp.csr_matrix:
        if self._adj_t is None:
            self._adj_t = sp.csr_matrix(self.adj.T)
        return self._adj_t

    @property
    def adj_norm(self) -> sp.csr_matrix:
        if self._adj_norm is None:
            self._adj_norm = self._aggregator(self.edge_norm)
        return self._adj_norm

    @property
    def adj_norm_t(self) -> sp.csr_matrix:
        if self._adj_norm_t is None:
            self._adj_norm_t = sp.csr_matrix(self.adj_norm.T)
        return self._adj_norm_t

    def __repr__(self) -> str:
        return (f"GraphSparseCache(num_nodes={self.num_nodes}, "
                f"num_layer_edges={self.src.shape[0]})")


def _row_count(rows: np.ndarray | None, num_nodes: int) -> int:
    return num_nodes if rows is None else int(rows.shape[0])


def _renumber(nodes: np.ndarray, rows: np.ndarray | None, verb: str) -> np.ndarray:
    """Each node's position in the sorted ``rows`` (``None``: unchanged)."""
    if rows is None:
        return nodes
    pos = np.searchsorted(rows, nodes)
    if nodes.size and (pos.max() >= rows.shape[0] or not np.array_equal(rows[pos], nodes)):
        raise KernelError(f"kept layer edges {verb} nodes outside the layer's row set")
    return pos


#: memo name -> [hits, misses]; read by :func:`memo_info` (and through it
#: the ``repro stats`` CLI and the serving daemon's ``/caches`` endpoint).
#: A miss is any lookup that had to compile a fresh structure.
_MEMO_STATS: dict[str, list] = {
    "graph": [0, 0], "edge": [0, 0], "plan": [0, 0], "feature": [0, 0],
    "dense": [0, 0],
}


def sparse_cache(graph) -> GraphSparseCache:
    """The graph's compiled sparse structure, built on first use.

    Validity is an identity check on ``graph.edge_index``: all connectivity
    mutations in this library replace the array (``with_edges``, ``copy``
    create fresh ``Graph`` objects; ``validate()`` keeps the same int64
    array), so ``is`` is both sound and O(1).
    """
    cached = getattr(graph, "_sparse_cache", None)
    if cached is not None and cached.edge_index is graph.edge_index \
            and cached.num_nodes == graph.num_nodes:
        _MEMO_STATS["graph"][0] += 1
        return cached
    _MEMO_STATS["graph"][1] += 1
    cache = GraphSparseCache(graph.edge_index, graph.num_nodes)
    graph._sparse_cache = cache
    return cache


# ----------------------------------------------------------------------
# identity-keyed memos for bare arrays
# ----------------------------------------------------------------------
# key -> (weakref to the key array, compiled structure). The weakref both
# validates the id() key (object identity, not address reuse: the finalizer
# evicts the entry before the address can be recycled) and bounds the memo:
# entries die with their arrays.
_EDGE_MEMO: dict[tuple[int, int], tuple[weakref.ref, GraphSparseCache]] = {}
_PLAN_MEMO: dict[tuple[int, int], tuple[weakref.ref, SegmentPlan]] = {}


def _memo_get(memo: dict, key: tuple[int, int], array: np.ndarray,
              stats: str):
    hit = memo.get(key)
    if hit is not None and hit[0]() is array:
        _MEMO_STATS[stats][0] += 1
        return hit[1]
    _MEMO_STATS[stats][1] += 1
    return None


def _memo_put(memo: dict, key: tuple[int, int], array: np.ndarray, value) -> None:
    memo[key] = (weakref.ref(array, lambda _ref: memo.pop(key, None)), value)


def edge_cache(edge_index: np.ndarray, num_nodes: int) -> GraphSparseCache:
    """Memoized :class:`GraphSparseCache` for a bare ``(edge_index, N)`` pair.

    Keyed on the *identity* of ``edge_index`` — the conv layers call this
    from their autograd forwards, where the same array object arrives every
    epoch of a training loop, so the scatter structure (and therefore the
    ``np.add.at``-free kernel dispatch) is compiled exactly once per graph.
    """
    key = (id(edge_index), int(num_nodes))
    cached = _memo_get(_EDGE_MEMO, key, edge_index, "edge")
    if cached is None:
        cached = GraphSparseCache(edge_index, int(num_nodes))
        _memo_put(_EDGE_MEMO, key, edge_index, cached)
    return cached


def plan_for(index: np.ndarray, num_rows: int) -> SegmentPlan:
    """Memoized :class:`SegmentPlan` for a bare ``(index, num_rows)`` pair.

    The identity-keyed fallback behind the plan-backed autograd primitives:
    call sites that cannot thread an explicit plan (pooling over a batch
    vector, flow-score aggregation over precomputed scatter indices) still
    compile their plan once per index array instead of once per call.
    """
    key = (id(index), int(num_rows))
    plan = _memo_get(_PLAN_MEMO, key, index, "plan")
    if plan is None:
        plan = SegmentPlan(index, int(num_rows))
        _memo_put(_PLAN_MEMO, key, index, plan)
    return plan


def memo_info() -> dict:
    """Hit/miss/size counters for every sparse-structure memo.

    ``graph`` counts :func:`sparse_cache` lookups (entries live on the
    graph objects, so no entry count is reported); ``edge`` /
    ``plan`` / ``feature`` / ``dense`` are the identity-keyed module memos. Feeds
    :func:`repro.obs.summary.cache_summary`.
    """
    sizes = {"edge": len(_EDGE_MEMO), "plan": len(_PLAN_MEMO),
             "feature": len(_FEATURE_MEMO), "dense": len(_DENSE_MEMO)}
    out = {}
    for name, (hits, misses) in _MEMO_STATS.items():
        entry = {"hits": hits, "misses": misses}
        if name in sizes:
            entry["entries"] = sizes[name]
        out[name] = entry
    return out


# value: () = "inspected, too dense" so count_nonzero runs once per array.
_FEATURE_MEMO: dict[tuple[int, int], tuple[weakref.ref, tuple]] = {}
_DENSE_MEMO: dict[tuple[int, int], tuple[weakref.ref, np.ndarray]] = {}


def feature_csr(x: np.ndarray) -> tuple[sp.csr_matrix, sp.csc_matrix] | None:
    """Memoized sparse twin ``(matrix, matrix.T)`` of a sparse *dense* array.

    Sparse features are stored as CSR from the start (bag-of-words
    surrogates, :class:`~repro.graph.Graph`'s canonical form), so this
    memo serves the features a caller hands over as a dense array. When
    ``x`` is a 2-D float64 array no denser than
    :data:`FEATURE_DENSITY_CEILING`, this returns a CSR copy and its
    transpose for :meth:`Tensor.annotate_sparse
    <repro.autograd.Tensor.annotate_sparse>` to route the first-layer
    weight GEMM ``x @ W`` — and its adjoint ``x.T @ g`` — through;
    otherwise ``None``. The CSR copy is the canonical form a ``Graph``
    stores, so a dense array and its CSR twin give the same bits. The
    transpose is the zero-copy CSC view ``matrix.T``: its product walks
    ``g``'s rows in node order and adds into the small ``(F, hidden)``
    output, where a CSR copy of the transpose would read ``g``'s rows in
    scattered order. Each output entry sums the same products in the same
    increasing-node order either way, so the bits match. Identity-keyed
    like :func:`plan_for`: the density scan and conversion run once per
    array object, and entries die with their arrays.
    """
    if not isinstance(x, np.ndarray) or x.ndim != 2 or x.dtype != np.float64:
        return None
    key = (id(x), x.shape[0])
    hit = _memo_get(_FEATURE_MEMO, key, x, "feature")
    if hit is None:
        density = np.count_nonzero(x) / max(x.size, 1)
        if density <= FEATURE_DENSITY_CEILING:
            matrix = sp.csr_matrix(x)
            hit = (matrix, matrix.T)
        else:
            hit = ()
        _memo_put(_FEATURE_MEMO, key, x, hit)
    return hit or None


def feature_dense(x) -> np.ndarray:
    """``x`` as a dense ``(N, F)`` array: the one dense read of features.

    The mirror of :func:`feature_csr`. A dense array is returned as is; a
    sparse matrix's ``toarray()`` is memoized on the matrix's identity, so
    every consumer that needs dense features (batched masked forwards,
    GIN's raw-feature aggregation, gradient and feature-mask explainers)
    shares one copy, and the entry dies with its matrix. Callers must
    treat the result as read-only.
    """
    if not sp.issparse(x):
        return x
    key = (id(x), x.shape[0])
    dense = _memo_get(_DENSE_MEMO, key, x, "dense")
    if dense is None:
        dense = x.toarray()
        dense.flags.writeable = False
        _memo_put(_DENSE_MEMO, key, x, dense)
    return dense
