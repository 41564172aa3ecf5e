"""GNN models used as explanation targets.

The paper evaluates 3-layer GCN, GIN and GAT models (GAT with 8 attention
heads) on node- and graph-classification tasks. :class:`GNN` packages the
convolution stack, an optional global pooling readout and a linear
classification head, and exposes the per-layer edge-mask hooks the
explainers drive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd import Linear, Module, SparseLeaf, Tensor, log_softmax, no_grad, softmax
from ..errors import ModelError, ShapeError
from ..graph import Graph, GraphBatch
from ..obs import PERF, span
from ..obs.names import SPAN_MASKED_FORWARD_BATCH, STAGE_MASKED_FORWARD_BATCH
from ..rng import ensure_rng
from ..sparse import edge_cache, feature_csr, feature_dense, sparse_cache
from .gat import GATConv
from .gcn import GCNConv
from .gin import GINConv
from .message_passing import num_layer_edges
from .pooling import global_max_pool, global_mean_pool, global_sum_pool

__all__ = ["GNN", "LayerTrim", "build_model", "CONV_TYPES"]

CONV_TYPES = ("gcn", "gin", "gat")


class GNN(Module):
    """A multi-layer message-passing classifier.

    Parameters
    ----------
    conv:
        ``"gcn"``, ``"gin"`` or ``"gat"``.
    task:
        ``"node"`` (per-node logits) or ``"graph"`` (pooled logits).
    in_features, hidden, num_classes:
        Input width, hidden width and class count.
    num_layers:
        Number of message-passing layers (paper: 3).
    heads:
        Attention heads for GAT (paper: 8); per-head width is
        ``hidden // heads``.
    pool:
        Graph-task readout: ``"sum"`` (default; counts substructures, the
        GIN-paper recommendation), ``"mean"`` or ``"max"``.
    rng:
        Seed or generator for all weight initialization.
    """

    def __init__(self, conv: str, task: str, in_features: int, hidden: int,
                 num_classes: int, num_layers: int = 3, heads: int = 8,
                 pool: str = "sum",
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        if conv not in CONV_TYPES:
            raise ModelError(f"unknown conv type {conv!r}; expected one of {CONV_TYPES}")
        if task not in ("node", "graph"):
            raise ModelError(f"unknown task {task!r}; expected 'node' or 'graph'")
        if num_layers < 1:
            raise ModelError("num_layers must be >= 1")
        if pool not in ("sum", "mean", "max"):
            raise ModelError(f"unknown pool {pool!r}; expected sum/mean/max")
        rng = ensure_rng(rng)

        self.conv_name = conv
        self.task = task
        self.pool = pool
        self.in_features = in_features
        self.hidden = hidden
        self.num_classes = num_classes
        self.num_layers = num_layers
        self.heads = heads

        self.convs = []
        dims = [in_features] + [hidden] * num_layers
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            if conv == "gcn":
                # Graph-level targets keep raw sum aggregation so degree
                # information survives pooling (see GCNConv docstring).
                self.convs.append(GCNConv(d_in, d_out, normalize=(task == "node"), rng=rng))
            elif conv == "gin":
                self.convs.append(GINConv(d_in, d_out, rng=rng))
            else:
                if hidden % heads != 0:
                    raise ModelError(f"hidden={hidden} must be divisible by heads={heads}")
                self.convs.append(
                    GATConv(d_in, hidden // heads, heads=heads, concat_heads=True, rng=rng)
                )
        self.head = Linear(hidden, num_classes, rng=rng)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def forward(self, x, edge_index: np.ndarray, num_nodes: int,
                edge_masks: list[Tensor] | None = None,
                batch: np.ndarray | None = None,
                num_graphs: int | None = None,
                cache=None,
                trim: LayerTrim | None = None) -> Tensor:
        """Compute logits.

        Parameters
        ----------
        x:
            ``(N, F)`` features: an array, a CSR matrix (entering as a
            constant :class:`~repro.autograd.SparseLeaf`) or a Tensor.
        edge_index:
            ``(2, E)`` directed edges (no self-loops; layers add their own).
        num_nodes:
            Node count ``N``.
        edge_masks:
            Optional per-layer masks, one Tensor of shape ``(E + N,)`` per
            layer (see :mod:`repro.nn.message_passing` for the id space).
        batch, num_graphs:
            For graph tasks, node→graph assignment and graph count.
        cache:
            Optional :class:`~repro.sparse.GraphSparseCache` shared by all
            layers — ``forward_graph``/``forward_batch`` thread the
            per-graph cache so every epoch of a training loop reuses one
            compiled scatter plan per direction.
        trim:
            Optional :class:`LayerTrim` of one explanation: each layer runs
            over only its kept layer edges (``edge_masks`` then hold one
            entry per kept id), and the layers below the last compute only
            the rows those edges write. The last layer writes every row,
            because the class head's product is exact only over the
            untrimmed rows. The logits equal the untrimmed forward's bit
            for bit at every node the last layer's kept edges end at;
            other rows aggregate no messages.
        """
        PERF.single_forwards += 1
        if isinstance(x, Tensor):
            h = x
        elif sp.issparse(x):
            # CSR features stay sparse: the first layer's weight GEMM (and
            # its adjoint, through the zero-copy CSC view) run over the
            # nonzeros, and no layer reads them dense.
            h = SparseLeaf(x, x.T)
        else:
            h = Tensor(x)
            # A sparse matrix handed over dense gets a memoized CSR twin,
            # so its first layer runs the same sparse kernel.
            twin = feature_csr(h.data)
            if twin is not None:
                h.annotate_sparse(*twin)
        if edge_masks is not None and len(edge_masks) != self.num_layers:
            raise ModelError(
                f"expected {self.num_layers} edge masks, got {len(edge_masks)}"
            )
        embeddings = run_convs(self.convs, h, edge_index, num_nodes, edge_masks,
                               cache, trim, dense_readout=True)
        h = embeddings[-1]
        self._last_embeddings = embeddings

        if self.task == "graph":
            if batch is None:
                batch = np.zeros(num_nodes, dtype=np.int64)
                num_graphs = 1
            if num_graphs is None:
                num_graphs = int(batch.max()) + 1
            h = self._pool(h, batch, num_graphs)
        return self.head(h)

    def _pool(self, h: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
        """The graph-task readout: ``(N, ...) -> (num_graphs, ...)``."""
        pool_fn = {"sum": global_sum_pool, "mean": global_mean_pool,
                   "max": global_max_pool}[self.pool]
        return pool_fn(h, batch, num_graphs)

    def forward_graph(self, graph: Graph, edge_masks: list[Tensor] | None = None,
                      trim: LayerTrim | None = None) -> Tensor:
        """Logits for a single :class:`Graph` (node or graph task).

        ``trim`` runs the masked forward of one explanation (see
        :meth:`forward`).
        """
        return self.forward(graph.x, graph.edge_index, graph.num_nodes,
                            edge_masks=edge_masks, cache=sparse_cache(graph),
                            trim=trim)

    def forward_batch(self, batch: GraphBatch, edge_masks: list[Tensor] | None = None) -> Tensor:
        """Logits for a :class:`GraphBatch` (graph task)."""
        if self.task != "graph":
            raise ModelError("forward_batch is only valid for graph-classification models")
        return self.forward(
            batch.x, batch.edge_index, batch.num_nodes,
            edge_masks=edge_masks, batch=batch.batch, num_graphs=batch.num_graphs,
            cache=sparse_cache(batch),
        )

    # ------------------------------------------------------------------
    # batched masked inference (no tape)
    # ------------------------------------------------------------------
    def forward_masked_batch(self, graph: Graph, mask_stack: np.ndarray | None = None,
                             *, structural: bool = False,
                             x_stack: np.ndarray | None = None,
                             trim: LayerTrim | None = None) -> np.ndarray:
        """Logits for a *stack* of per-layer edge-mask sets in one pass.

        Evaluates ``B`` mask (and/or feature) variations of ``graph`` under
        the shared frozen weights — the vectorized equivalent of ``B``
        calls to :meth:`forward_graph`. The conv loop is the one
        :meth:`forward` runs, under ``no_grad`` on ``(N, B, F)`` states,
        so no tape is recorded.

        Parameters
        ----------
        graph:
            The instance being perturbed.
        mask_stack:
            ``(B, L, E+N)`` per-layer edge masks (the layer-edge id space of
            :mod:`repro.nn.message_passing`), or ``None`` for unmasked
            forwards (then ``x_stack`` sets ``B``).
        structural:
            Treat binary masks as edge *removal* (recomputed GCN degree
            normalization, attention renormalized over surviving edges) —
            row ``b`` then equals
            ``forward_graph(graph.with_edges(mask_stack[b, 0, :E] > 0))``.
        x_stack:
            Optional ``(B, N, F)`` perturbed node-feature stacks (e.g.
            PGM-Explainer's perturbation tables). Defaults to ``graph.x``,
            shared by every row.
        trim:
            Optional :class:`LayerTrim` of one node explanation, as in
            :meth:`forward`: layer ``l`` runs over only the columns
            ``mask_stack[:, l, trim.layer_edges[l]]``, and the layers below
            the last compute only the rows those edges write. The logits
            equal the untrimmed forward's bit for bit at every node the
            last layer's kept edges end at (the explained node). Only
            masks that scale messages may be trimmed: a trim with
            ``structural=True`` raises :class:`~repro.errors.ModelError`.

        Returns
        -------
        ``(B, rows, C)`` logits; ``rows`` is ``N`` for node tasks and ``1``
        for graph tasks.
        """
        if mask_stack is None and x_stack is None:
            raise ModelError("forward_masked_batch needs mask_stack and/or x_stack")
        num_nodes = graph.num_nodes
        width = num_layer_edges(graph.num_edges, num_nodes)
        if mask_stack is not None:
            mask_stack = np.asarray(mask_stack, dtype=np.float64)
            if mask_stack.ndim != 3 or mask_stack.shape[1:] != (self.num_layers, width):
                raise ShapeError(
                    f"mask_stack must have shape (B, {self.num_layers}, {width}), "
                    f"got {mask_stack.shape}"
                )
        if x_stack is not None:
            x_stack = np.asarray(x_stack, dtype=np.float64)
            if x_stack.ndim != 3 or x_stack.shape[1:] != graph.x.shape:
                raise ShapeError(
                    f"x_stack must have shape (B, {num_nodes}, {graph.num_features}), "
                    f"got {x_stack.shape}"
                )
        if mask_stack is not None and x_stack is not None \
                and mask_stack.shape[0] != x_stack.shape[0]:
            raise ShapeError(
                f"mask_stack batch {mask_stack.shape[0]} != x_stack batch {x_stack.shape[0]}"
            )
        B = mask_stack.shape[0] if mask_stack is not None else x_stack.shape[0]
        PERF.batched_forwards += 1
        PERF.batched_rows += B

        with PERF.stage(STAGE_MASKED_FORWARD_BATCH), \
                span(SPAN_MASKED_FORWARD_BATCH, rows=B), no_grad():
            # Node-major states (N, B, F): every projection is one GEMM
            # and every aggregation one kernel call over the graph's
            # cached plan; shared features enter as (N, 1, F), so layer
            # 1's projection runs once for the whole stack. Masks are
            # (E+N, B) column views, one column per row (a trim's layer
            # takes its kept columns).
            x = feature_dense(graph.x)[:, None, :] if x_stack is None \
                else np.ascontiguousarray(x_stack.transpose(1, 0, 2))
            masks = None
            if mask_stack is not None:
                kept = [slice(None)] * self.num_layers if trim is None else trim.layer_edges
                masks = [Tensor(mask_stack[:, l, ids].T) for l, ids in enumerate(kept)]
            h = run_convs(self.convs, Tensor(x), graph.edge_index, num_nodes, masks,
                          sparse_cache(graph), trim, structural=structural,
                          dense_readout=True)[-1]
            if self.task == "graph":
                # The whole stack is one graph: pool every node into row 0.
                h = self._pool(h, np.zeros(num_nodes, dtype=np.int64), 1)
            return self.head(h).numpy().transpose(1, 0, 2)

    def predict_proba_batch(self, graph: Graph, mask_stack: np.ndarray | None = None,
                            *, structural: bool = False,
                            x_stack: np.ndarray | None = None,
                            trim: LayerTrim | None = None) -> np.ndarray:
        """Class probabilities for a mask/feature stack: ``(B, rows, C)``
        (``trim``: see :meth:`forward_masked_batch`)."""
        logits = self.forward_masked_batch(graph, mask_stack, structural=structural,
                                           x_stack=x_stack, trim=trim)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    # ------------------------------------------------------------------
    # inference helpers
    # ------------------------------------------------------------------
    def predict_proba(self, graph: Graph) -> np.ndarray:
        """Class probabilities without touching the tape.

        Shape ``(N, C)`` for node tasks, ``(1, C)`` for graph tasks.
        """
        with no_grad():
            logits = self.forward_graph(graph)
            return softmax(logits, axis=-1).numpy()

    def predict(self, graph: Graph) -> np.ndarray:
        """Argmax class per node (node task) or per graph (graph task)."""
        return self.predict_proba(graph).argmax(axis=-1)

    def log_prob(self, graph: Graph, edge_masks: list[Tensor] | None = None) -> Tensor:
        """Differentiable log-probabilities (used by mask-learning losses)."""
        return log_softmax(self.forward_graph(graph, edge_masks=edge_masks), axis=-1)

    def node_embeddings(self, graph: Graph) -> list[np.ndarray]:
        """Per-layer node embeddings from a plain forward pass (no grad)."""
        with no_grad():
            self.forward_graph(graph)
            return [e.numpy().copy() for e in self._last_embeddings]

    def layer_edge_count(self, graph: Graph) -> int:
        """Size of the per-layer mask vector for ``graph``."""
        return num_layer_edges(graph.num_edges, graph.num_nodes)

    def clone(self) -> "GNN":
        """Deep-copied model with identical weights."""
        twin = GNN(self.conv_name, self.task, self.in_features, self.hidden,
                   self.num_classes, num_layers=self.num_layers, heads=self.heads,
                   pool=self.pool)
        twin.load_state_dict(self.state_dict())
        return twin

    def __repr__(self) -> str:
        return (
            f"GNN(conv={self.conv_name!r}, task={self.task!r}, layers={self.num_layers}, "
            f"in={self.in_features}, hidden={self.hidden}, classes={self.num_classes})"
        )


class LayerTrim:
    """The layer edges and node rows one explanation's masked forward runs.

    Parameters
    ----------
    layer_edges:
        Per layer, the sorted layer-edge ids the layer runs over
        (:meth:`FlowIndex.used_layer_edge_ids
        <repro.flows.FlowIndex.used_layer_edge_ids>`). Each set must keep
        every in-edge of its destinations, and read only nodes the layer
        before writes.

    Each layer runs on a :meth:`~repro.sparse.GraphSparseCache.restrict`
    sub-cache. A row-trimmed layer writes only :attr:`rows` ``[l]``, the
    sorted destinations of its kept edges, and the next layer reads only
    those; every row it writes equals the untrimmed forward's there, bit
    for bit. Two rules keep that exact, because BLAS computes a row of a
    matrix product by kernels chosen by the product's shape:

    - A row set that would hold one node of a multi-node graph gets a
      second, lowest-numbered one: numpy runs a one-row product as a
      GEMV, whose sums differ from the GEMM the untrimmed forward runs.
    - A layer whose rows feed a product of a width the model does not
      choose writes every row (``every_row`` of :meth:`caches`): a GNN's
      last layer (the class head) and GIN layers (the MLP's adjoint has
      the layer's input width). Hidden-width products give each row the
      same bits at any row count; class- and feature-width ones do not.
    """

    def __init__(self, layer_edges: list[np.ndarray]):
        self.layer_edges = list(layer_edges)
        self._rows: list[np.ndarray] | None = None

    def caches(self, cache, every_row: list[bool]) -> list:
        """Each layer's sub-cache; layer ``l`` writes every row if
        ``every_row[l]``."""
        if len(self.layer_edges) != len(every_row):
            raise ModelError(
                f"expected {len(every_row)} layer-edge sets, got {len(self.layer_edges)}")
        subs, rows, reads = [], [], None
        least = min(2, cache.num_nodes)
        for ids, full in zip(self.layer_edges, every_row):
            writes = None
            if not full:
                writes = np.unique(cache.dst[ids])
                if writes.size < least:
                    spare = np.setdiff1d(np.arange(least), writes)
                    writes = np.union1d(writes, spare[:least - writes.size])
            subs.append(cache.restrict(ids, reads, writes))
            rows.append(np.arange(cache.num_nodes) if writes is None else writes)
            reads = writes
        self._rows = rows
        return subs

    @property
    def rows(self) -> list[np.ndarray]:
        """Per layer, the sorted node ids it computed in the last forward."""
        if self._rows is None:
            raise ModelError("a LayerTrim's rows are known once a forward has run it")
        return self._rows

    def row(self, nodes):
        """The output row of each node in ``nodes`` (an int or an array)."""
        last = self.rows[-1]
        pos = np.searchsorted(last, nodes)
        if np.any(pos >= last.size) or not np.array_equal(last[pos], nodes):
            raise ModelError(f"node(s) {nodes!r} are not computed by this trim")
        return pos


def run_convs(convs: list, h: Tensor, edge_index: np.ndarray, num_nodes: int,
              edge_masks: list[Tensor] | None, cache,
              trim: LayerTrim | None, *, structural: bool = False,
              dense_readout: bool = False) -> list[Tensor]:
    """Every conv layer and its ReLU; returns each layer's embeddings.

    With a ``trim``, each layer runs on its trimmed cache and returns the
    rows :attr:`LayerTrim.rows` lists; ``dense_readout`` (a class head
    reads the output) makes the last layer write every row.
    ``structural`` makes binary masks remove edges (see
    :class:`~repro.nn.message_passing.GraphConv`); it reads the full
    graph's degrees, so it takes no trim.
    """
    if cache is None:
        cache = edge_cache(edge_index, num_nodes)
    if trim is None:
        caches = [cache] * len(convs)
    elif structural:
        raise ModelError("a trimmed forward cannot remove edges structurally")
    else:
        every_row = [conv.dense_update for conv in convs]
        every_row[-1] = every_row[-1] or dense_readout
        caches = trim.caches(cache, every_row)
    embeddings = []
    for l, conv in enumerate(convs):
        mask = edge_masks[l] if edge_masks is not None else None
        h = conv(h, edge_index, num_nodes, edge_mask=mask, cache=caches[l],
                 structural=structural).relu()
        embeddings.append(h)
    return embeddings


def build_model(conv: str, task: str, in_features: int, num_classes: int,
                hidden: int = 32, num_layers: int = 3,
                rng: int | np.random.Generator | None = None) -> GNN:
    """Factory with the paper's defaults (3 layers; GAT gets 8 heads)."""
    return GNN(conv, task, in_features, hidden, num_classes,
               num_layers=num_layers, heads=8 if conv == "gat" else 1, rng=rng)
