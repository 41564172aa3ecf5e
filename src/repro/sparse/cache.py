"""Per-graph sparse-structure caches and identity-keyed plan memos.

A :class:`~repro.graph.data.Graph`'s connectivity is immutable in practice
— every mutation path (``with_edges``, ``copy``, dataset regeneration)
builds a *new* ``edge_index`` array — so the compiled scatter structure can
be attached to the graph object itself and validated by array identity, a
pointer comparison instead of a hash of ``O(E)`` bytes per forward.

Three entry points, from most to least context:

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

from .structure import SegmentPlan, augmented_edges

__all__ = ["GraphSparseCache", "sparse_cache", "edge_cache", "plan_for",
           "feature_csr"]

#: Densest feature matrix worth a CSR twin: above this, BLAS on the dense
#: array beats sparse matvecs and :func:`feature_csr` memoizes ``None``.
FEATURE_DENSITY_CEILING = 0.05


class GraphSparseCache:
    """Compiled CSR/CSC scatter structures for one graph's connectivity.

    Attributes
    ----------
    src, dst:
        ``(E+N,)`` endpoints of the augmented (self-loop-appended) edge set
        — the layer-edge id space shared by convs, masks and flows.
    dst_plan:
        :class:`SegmentPlan` over ``dst`` — the message-aggregation scatter
        every conv layer dispatches through.
    src_plan:
        :class:`SegmentPlan` over ``src`` (lazy) — the adjoint structure:
        the backward pass of a per-edge gather ``x[src]`` is a scatter-add
        over ``src``, so training needs both directions compiled.
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
        of the per-forward hot loop.
    adj / adj_t, adj_norm / adj_norm_t:
        Cached ``(N, N)`` CSR aggregation operators over the augmented
        edge set (lazy): unit-weight for sum aggregation (GIN, unnormalized
        GCN) and ``edge_norm``-weighted for the renormalized GCN rule, each
        with its transpose precompiled. The unmasked training forward is
        one ``spmm`` over these — forward through ``adj*``, backward
        through ``adj*_t`` — instead of a gather / scale / scatter chain
        that materializes ``(E+N, F)`` intermediates four times per layer.
    """

    __slots__ = ("edge_index", "num_nodes", "src", "dst", "dst_plan",
                 "_src_plan", "_deg", "_deg_inv_sqrt", "_edge_norm",
                 "_adj", "_adj_t", "_adj_norm", "_adj_norm_t", "__weakref__")

    def __init__(self, edge_index: np.ndarray, num_nodes: int):
        self.edge_index = edge_index
        self.num_nodes = int(num_nodes)
        self.src, self.dst = augmented_edges(edge_index, self.num_nodes)
        self.dst_plan = SegmentPlan(self.dst, self.num_nodes)
        self._src_plan: SegmentPlan | None = None
        self._deg: np.ndarray | None = None
        self._deg_inv_sqrt: np.ndarray | None = None
        self._edge_norm: np.ndarray | None = None
        self._adj: sp.csr_matrix | None = None
        self._adj_t: sp.csr_matrix | None = None
        self._adj_norm: sp.csr_matrix | None = None
        self._adj_norm_t: sp.csr_matrix | None = None

    @property
    def src_plan(self) -> SegmentPlan:
        if self._src_plan is None:
            self._src_plan = SegmentPlan(self.src, self.num_nodes)
        return self._src_plan

    @property
    def deg(self) -> np.ndarray:
        # dst_plan.counts *is* the augmented in-degree.
        return self.dst_plan.counts if self._deg is None else self._deg

    @property
    def deg_inv_sqrt(self) -> np.ndarray:
        if self._deg_inv_sqrt is None:
            self._deg_inv_sqrt = 1.0 / np.sqrt(np.maximum(self.deg, 1.0))
        return self._deg_inv_sqrt

    @property
    def edge_norm(self) -> np.ndarray:
        if self._edge_norm is None:
            d = self.deg_inv_sqrt
            self._edge_norm = d[self.src] * d[self.dst]
        return self._edge_norm

    def _aggregator(self, weights: np.ndarray) -> sp.csr_matrix:
        # out[dst] += w · x[src]  ⇒  rows are destinations, cols sources.
        n = self.num_nodes
        return sp.csr_matrix((weights, (self.dst, self.src)), shape=(n, n))

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


#: memo name -> [hits, misses]; read by :func:`memo_info` (and through it
#: the ``repro stats`` CLI and the serving daemon's ``/caches`` endpoint).
#: A miss is any lookup that had to compile a fresh structure.
_MEMO_STATS: dict[str, list] = {
    "graph": [0, 0], "edge": [0, 0], "plan": [0, 0], "feature": [0, 0],
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
    graph objects themselves, so no entry count is reported); ``edge`` /
    ``plan`` / ``feature`` are the identity-keyed module memos. Feeds
    :func:`repro.obs.summary.cache_summary`.
    """
    sizes = {"edge": len(_EDGE_MEMO), "plan": len(_PLAN_MEMO),
             "feature": len(_FEATURE_MEMO)}
    out = {}
    for name, (hits, misses) in _MEMO_STATS.items():
        entry = {"hits": hits, "misses": misses}
        if name in sizes:
            entry["entries"] = sizes[name]
        out[name] = entry
    return out


# value: () = "inspected, too dense" so count_nonzero runs once per array.
_FEATURE_MEMO: dict[tuple[int, int], tuple[weakref.ref, tuple]] = {}


def feature_csr(x: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix] | None:
    """Memoized CSR twin ``(matrix, matrix.T)`` of a sparse feature matrix.

    Bag-of-words node features (Cora: ~1.5% nonzero) make the first-layer
    weight GEMM ``x @ W`` — and its adjoint ``x.T @ g`` — the most
    expensive dense operations of a training epoch. When ``x`` is a 2-D
    float64 array no denser than :data:`FEATURE_DENSITY_CEILING`, this
    returns a CSR copy and its precompiled transpose for
    :meth:`Tensor.annotate_sparse <repro.autograd.Tensor.annotate_sparse>`
    to route the matmul through; otherwise ``None``. Identity-keyed like
    :func:`plan_for`: the density scan and conversion run once per array
    object, and entries die with their arrays.
    """
    if not isinstance(x, np.ndarray) or x.ndim != 2 or x.dtype != np.float64:
        return None
    key = (id(x), x.shape[0])
    hit = _memo_get(_FEATURE_MEMO, key, x, "feature")
    if hit is None:
        density = np.count_nonzero(x) / max(x.size, 1)
        if density <= FEATURE_DENSITY_CEILING:
            matrix = sp.csr_matrix(x)
            hit = (matrix, sp.csr_matrix(matrix.T))
        else:
            hit = ()
        _memo_put(_FEATURE_MEMO, key, x, hit)
    return hit or None
