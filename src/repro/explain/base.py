"""Explainer framework: the :class:`Explanation` result object and the
:class:`Explainer` base class shared by Revelio and all baselines.

Scope conventions
-----------------
*Node classification*: explainers operate on the target's L-hop incoming
neighborhood (the only region that can influence the prediction of an
L-layer GNN), exactly as PyG's explainer framework does, and scatter their
scores back to full-graph edge positions. *Graph classification*: the whole
(small) graph is the context.

Modes
-----
``"factual"`` explanations score components whose *retention* preserves the
prediction (evaluated by Fidelity−); ``"counterfactual"`` explanations
score components whose *removal* flips it (Fidelity+). Methods that do not
distinguish the two (gradient baselines, PGM-Explainer, SubgraphX, GNN-LRP)
return the same scores for both, as in the paper's experiments.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

from ..errors import ExplainerError
from ..flows import FlowIndex, graph_fingerprint
from ..flows.cache import LRUCache
from ..graph import Graph, SampledSubgraph, extract_receptive_field
from ..nn.models import GNN
from ..obs import PERF, span
from ..obs.names import SPAN_CONTEXT_EXTRACT, SPAN_EXPLAIN
from .target import ExplainTarget, require_target

__all__ = ["Explanation", "Explainer", "MODES",
           "CONTEXT_CACHE", "context_cache_disabled", "clear_context_cache",
           "context_key", "feature_digest", "check_int", "check_real", "traced_explain"]

MODES = ("factual", "counterfactual")

#: Cross-explainer L-hop context cache. Every explainer extracts the same
#: L-hop neighborhood for the same (graph, target); contexts are read-only
#: by convention (perturbation methods copy before mutating), so one
#: extraction is shared by all of them.
CONTEXT_CACHE = LRUCache(maxsize=256)
_CONTEXT_CACHE_ENABLED = [True]


def feature_digest(x) -> str:
    """SHA-1 of a feature matrix's dtype, shape and values.

    A CSR matrix (the canonical form a :class:`~repro.graph.Graph`
    stores, so equal matrices have equal arrays) is hashed over its
    ``indptr``, ``indices`` and ``data``, never densified.
    """
    if sp.issparse(x):
        h = hashlib.sha1(f"csr{x.dtype.str}{x.shape}".encode())
        for part in (x.indptr, x.indices, x.data):
            h.update(f"{part.dtype.str}{part.size}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        return h.hexdigest()
    x = np.ascontiguousarray(x)
    h = hashlib.sha1(f"{x.dtype.str}{x.shape}".encode())
    h.update(x.tobytes())
    return h.hexdigest()


def check_int(name: str, value, minimum: int) -> None:
    """Reject a constructor setting that is not an integer ``>= minimum``.

    Explainers validate their budgets at construction, so a bad value is
    an :class:`ExplainerError` (a 400 when served) before any work runs.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ExplainerError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, low: float, *, strict: bool = False,
               high: float | None = None) -> None:
    """Reject a setting that is not a finite number ``>= low`` (``> low``
    when ``strict``) and, if given, ``<= high``."""
    ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value) \
        and (value > low if strict else value >= low) and (high is None or value <= high)
    if not ok:
        bound = f"{'>' if strict else '>='} {low:g}" + ("" if high is None else f" and <= {high:g}")
        raise ExplainerError(f"{name} must be a finite number {bound}, got {value!r}")


def traced_explain(method: str, mode: str,
                   explain: Callable[[], Explanation]) -> Explanation:
    """``explain()`` inside one ``explain`` span.

    With tracing on, the explanation records the span's ``trace_id`` and
    ``perf["explain_seconds"]`` in ``meta``; every public ``explain`` entry
    point goes through here, so all explanations share that schema.
    """
    with span(SPAN_EXPLAIN, method=method, mode=mode) as sp:
        explanation = explain()
        if sp is not None:
            sp.set(target=explanation.target,
                   num_edges=int(explanation.edge_scores.shape[0]))
            explanation.meta["trace_id"] = sp.trace_id
    if sp is not None:
        explanation.meta.setdefault("perf", {})["explain_seconds"] = sp.seconds
    return explanation


def context_key(graph: Graph, context: SampledSubgraph) -> tuple[str, str]:
    """``(structure of graph, features of the context's nodes)``: the
    content part of the context-cache and Revelio memo keys.

    Hashed on first use and kept on the context, so a request hashes at
    most once, and not at all while no cache keys on it.
    """
    if context.source_key is None:
        context.source_key = (graph_fingerprint(graph),
                              feature_digest(graph.x[context.node_ids]))
    return context.source_key


def clear_context_cache() -> None:
    """Explicitly drop every cached node context."""
    CONTEXT_CACHE.clear()


@contextmanager
def context_cache_disabled():
    """Temporarily bypass the context cache (benchmark baselines)."""
    prev = _CONTEXT_CACHE_ENABLED[0]
    _CONTEXT_CACHE_ENABLED[0] = False
    try:
        yield
    finally:
        _CONTEXT_CACHE_ENABLED[0] = prev


@dataclass
class Explanation:
    """The output of an explainer for one instance.

    Attributes
    ----------
    edge_scores:
        ``(E,)`` whole-graph importance per *data* edge (higher = more
        important). Always populated — this is what fidelity / AUC consume.
    layer_edge_scores:
        Optional ``(L, E+N)`` per-layer scores over the *context* graph's
        augmented edge space (flow-based and layer-aware methods).
    flow_scores:
        Optional ``(F,)`` per-flow importance (flow-based methods).
    flow_index:
        The :class:`FlowIndex` that ``flow_scores`` refers to (context
        graph's node ids).
    target:
        Explained node id (node tasks) or ``None`` (graph tasks).
    predicted_class:
        The class the explanation was computed for.
    mode:
        ``"factual"`` or ``"counterfactual"``.
    method:
        Explainer name.
    context_node_ids:
        For node tasks, original node ids of the context subgraph.
    context_edge_positions:
        For node tasks, original edge indices of the context subgraph —
        fidelity sweeps rank and perturb only these (edges outside the
        L-hop neighborhood cannot influence the prediction).
    meta:
        Structured extras. Three keys are reserved schema:

        * ``meta["params"]`` — the method hyperparameters the explanation
          was computed with (epochs, lr, alpha, samples, …), a flat dict
          of scalars.
        * ``meta["perf"]`` — performance/timing measurements (e.g.
          ``train_seconds`` for group-fit methods, ``explain_seconds``,
          ``stencil_evals``), a flat dict of scalars.
        * ``meta["trace_id"]`` — id of the trace this explanation was
          recorded under, when :mod:`repro.obs` tracing was enabled.

        Method-specific *diagnostics* (final loss, flow counts, selected
        flows, per-layer weights) remain free-form top-level keys.
    """

    edge_scores: np.ndarray
    predicted_class: int
    method: str
    mode: str = "factual"
    target: int | None = None
    layer_edge_scores: np.ndarray | None = None
    flow_scores: np.ndarray | None = None
    flow_index: FlowIndex | None = None
    context_node_ids: np.ndarray | None = None
    context_edge_positions: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def top_edges(self, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-scoring data edges."""
        k = min(k, self.edge_scores.shape[0])
        return np.argsort(-self.edge_scores, kind="stable")[:k]

    def edge_scores_at_layer(self, layer: int) -> np.ndarray:
        """Per-*data-edge* importance within one 1-based GNN layer.

        The paper's flow scores "can subsequently be translated into the
        importance scores for edges within individual GNN layers or across
        the entire GNN"; :attr:`edge_scores` is the across-GNN transfer,
        this is the within-layer one. Only layer-aware methods (flow
        methods, GraphMask) populate :attr:`layer_edge_scores`.
        """
        if self.layer_edge_scores is None:
            raise ExplainerError(f"{self.method} produced no per-layer scores")
        num_layers = self.layer_edge_scores.shape[0]
        if not 1 <= layer <= num_layers:
            raise ExplainerError(f"layer must be in [1, {num_layers}], got {layer}")
        row = self.layer_edge_scores[layer - 1]
        if self.flow_index is not None:
            return row[:self.flow_index.num_edges].copy()
        if self.context_edge_positions is not None:
            # Layer scores live on the context graph whose data edges come
            # first; self-loops occupy the tail.
            return row[:self.context_edge_positions.shape[0]].copy()
        if row.shape[0] >= self.edge_scores.shape[0]:
            return row[:self.edge_scores.shape[0]].copy()
        raise ExplainerError(
            f"{self.method}: layer scores cover {row.shape[0]} edges but "
            f"edge_scores has {self.edge_scores.shape[0]} and neither "
            f"flow_index nor context_edge_positions maps them")

    def top_flows(self, k: int) -> list[tuple[tuple[int, ...], float]]:
        """Top-``k`` flows as ``(node_sequence, score)`` pairs.

        Node ids are translated back to the original graph when the
        explanation was computed on a subgraph context.
        """
        if self.flow_scores is None or self.flow_index is None:
            raise ExplainerError(f"{self.method} did not produce flow scores")
        k = min(k, self.flow_scores.shape[0])
        order = np.argsort(-self.flow_scores, kind="stable")[:k]
        out = []
        for f in order:
            seq = self.flow_index.nodes[f]
            if self.context_node_ids is not None:
                seq = self.context_node_ids[seq]
            out.append((tuple(int(v) for v in seq), float(self.flow_scores[f])))
        return out

    def __repr__(self) -> str:
        return (
            f"Explanation(method={self.method!r}, mode={self.mode!r}, "
            f"target={self.target}, class={self.predicted_class}, "
            f"edges={self.edge_scores.shape[0]})"
        )


class Explainer:
    """Base class for all explanation methods.

    Parameters
    ----------
    model:
        A *pretrained* :class:`GNN`; it is frozen (gradients disabled on
        its weights) so mask learning never perturbs it.
    seed:
        Seed for any stochastic component of the method.
    """

    name = "explainer"
    is_flow_based = False
    supports_counterfactual = False

    def __init__(self, model: GNN, seed: int = 0):
        self.model = model
        self.seed = seed
        model.eval()
        model.freeze()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def explain(self, graph: Graph, target: ExplainTarget | None = None,
                mode: str = "factual") -> Explanation:
        """Explain one instance.

        ``target`` is an :class:`~repro.explain.target.ExplainTarget`
        (``ExplainTarget.node(i)`` for node classification; ``None`` or
        ``ExplainTarget.graph(j)`` for graph classification, where the
        caller has already selected graph ``j``). A bare int or tuple
        raises :class:`~repro.errors.ExplainerError` naming the typed
        constructor.
        """
        if mode not in MODES:
            raise ExplainerError(f"unknown mode {mode!r}; expected one of {MODES}")
        target = require_target(target, task=self.model.task,
                                where=f"{self.name}.explain")

        def explain() -> Explanation:
            if self.model.task == "node":
                if target is None:
                    raise ExplainerError("node-classification explanation requires a target node")
                return self.explain_node(graph, target.node_id, mode=mode)
            if target is not None and target.kind != "graph":
                raise ExplainerError(
                    f"{self.model.task}-classification explanation takes an "
                    f"ExplainTarget.graph(...) target (or None), got {target}")
            return self.explain_graph(graph, mode=mode)

        return traced_explain(self.name, mode, explain)

    def explain_node(self, graph: Graph, node: int, mode: str = "factual") -> Explanation:
        """Explain ``node`` on its L-hop context, reported in global ids."""
        return self._explain_in_context(graph, node, self.node_context(graph, node), mode)

    def explain_graph(self, graph: Graph, mode: str = "factual") -> Explanation:
        """Explain a graph-level prediction; the whole graph is the context."""
        return self._explain_instance(SampledSubgraph.whole(graph), mode)

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        """The one method each explainer implements.

        ``context`` is a node's receptive field (explain the row
        ``context.local_target`` of ``context.subgraph``) or, for graph
        tasks, :meth:`SampledSubgraph.whole` (``local_target`` is
        ``None``). Returns context-local scores; :meth:`explain_node`
        lifts them to the full graph.
        """
        raise NotImplementedError

    def _explain_in_context(self, graph: Graph, node: int, context: SampledSubgraph,
                            mode: str) -> Explanation:
        """Explain on an extracted context; lift the scores to ``graph``."""
        explanation = self._explain_instance(context, mode)
        explanation.target = node
        explanation.context_node_ids = context.node_ids
        explanation.context_edge_positions = context.edge_positions
        explanation.edge_scores = self.lift_edge_scores(
            context, explanation.edge_scores, graph.num_edges)
        return explanation

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def node_context(self, graph: Graph, node: int) -> SampledSubgraph:
        """The L-hop incoming neighborhood of ``node``, relabeled.

        Cached across explainer instances under the key ``(structure of
        graph, features of the receptive field, depth, node)``
        (:func:`context_key`). Structure fixes the node set, its degrees
        and the edge positions; features outside the receptive field
        cannot reach the target, so an edit there keeps the entry and an
        edit inside it misses. With the cache off nothing is hashed.
        Callers must treat the returned context as read-only (all
        in-tree consumers do).
        """
        node = int(node)
        num_hops = self.model.num_layers
        field = extract_receptive_field(graph, [node], num_hops)
        cached = _CONTEXT_CACHE_ENABLED[0]
        key = (*context_key(graph, field), num_hops, node) if cached else None
        context = CONTEXT_CACHE.get(key) if cached else None
        if context is not None:
            PERF.context_cache_hits += 1
            return context
        with span(SPAN_CONTEXT_EXTRACT, node=node):
            field.subgraph  # relabel now, before the field is shared
        if cached:
            CONTEXT_CACHE.put(key, field)
        return field

    def predicted_class(self, graph: Graph, target: int | None = None) -> int:
        """The model's predicted class at row ``target`` of ``graph``
        (row 0 when ``None``, the graph-task readout).

        Node explainers pass ``(context.subgraph, context.local_target)``:
        the context forward is exact at the target, so this is the
        full-graph prediction at the cost of the receptive field.
        """
        proba = self.model.predict_proba(graph)
        row = proba[target] if target is not None else proba[0]
        return int(row.argmax())

    def lift_edge_scores(self, context: SampledSubgraph, local_scores: np.ndarray,
                         num_edges: int) -> np.ndarray:
        """Scatter subgraph edge scores back to full-graph edge positions."""
        full = np.zeros(num_edges)
        full[context.edge_positions] = local_scores
        return full

    def __repr__(self) -> str:
        return f"{type(self).__name__}(model={self.model.conv_name}, task={self.model.task})"
