"""Top-k relevant-walk search (the polynomial-time flow explainer family).

The paper's related work (§II) cites follow-ups that avoid enumerating all
``|F|`` flows: sGNN-LRP reduces GNN-LRP's complexity from exponential to
linear in depth, and EMP-neu / AMP-ave find the top-k relevant walks in
polynomial time. This module implements that idea as an exact algorithm:

1. **Per-layer edge relevance** from a single backward pass: the gradient
   magnitude of the class log-probability w.r.t. each layer edge's mask
   multiplier (evaluated at the all-ones mask).
2. A walk's relevance estimate is the product of its per-layer edge
   relevances — additive in log-space, so the **top-k walks are the k
   longest paths in a layered DAG** with ``L·(E+N)`` edges, found exactly
   by dynamic programming with per-node k-best lists in
   ``O(L · (E+N) · k log k)`` — no flow enumeration at all.

The result is returned in the standard :class:`Explanation` format with a
:class:`FlowIndex` covering exactly the k discovered walks, so all the
flow-level tooling (tables, mass analysis, agreement) applies.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, log_softmax
from ..errors import ExplainerError
from ..flows import FlowIndex
from ..graph import Graph, SampledSubgraph
from ..nn.message_passing import augment_edges, num_layer_edges
from ..nn.models import GNN
from .base import Explainer, Explanation
from .flow_common import flow_scores_to_edge_scores

__all__ = ["RelevantWalks"]

_LOG_FLOOR = -30.0  # log-relevance assigned to zero-gradient edges


class RelevantWalks(Explainer):
    """Exact top-k walk search over gradient-based layer-edge relevance.

    Parameters
    ----------
    model:
        Pretrained target model.
    k:
        Number of walks to return.
    """

    name = "relevant_walks"
    is_flow_based = True

    def __init__(self, model: GNN, k: int = 20, seed: int = 0):
        super().__init__(model, seed=seed)
        if k <= 0:
            raise ExplainerError("k must be positive")
        self.k = k

    # ------------------------------------------------------------------
    def _layer_edge_relevance(self, graph: Graph, class_idx: int,
                              target: int | None) -> np.ndarray:
        """``(L, E+N)`` gradient magnitudes at the all-ones mask."""
        width = num_layer_edges(graph.num_edges, graph.num_nodes)
        masks = [Tensor(np.ones(width), requires_grad=True)
                 for _ in range(self.model.num_layers)]
        log_probs = log_softmax(self.model.forward_graph(graph, edge_masks=masks), axis=-1)
        row = target if target is not None else 0
        log_probs[row, class_idx].backward()
        return np.stack([
            np.abs(m.grad.reshape(-1)) if m.grad is not None else np.zeros(width)
            for m in masks
        ])

    def _k_best_walks(self, graph: Graph, log_weights: np.ndarray,
                      target: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact k-best paths through the layered DAG.

        Returns ``(nodes, layer_edges, scores)`` for the discovered walks,
        sorted by descending total log-relevance.
        """
        src, dst = augment_edges(graph.edge_index, graph.num_nodes)
        num_layers = self.model.num_layers
        k = self.k

        # best[v] = list of (score, walk_nodes, walk_edges) for partial
        # walks *ending* at v after processing layer l.
        best: list[list[tuple[float, tuple[int, ...], tuple[int, ...]]]] = [
            [(0.0, (v,), ())] for v in range(graph.num_nodes)
        ]
        for l in range(num_layers):
            nxt: list[list[tuple[float, tuple[int, ...], tuple[int, ...]]]] = [
                [] for _ in range(graph.num_nodes)
            ]
            for e in range(src.shape[0]):
                u, v = int(src[e]), int(dst[e])
                w = float(log_weights[l, e])
                for score, nodes, edges in best[u]:
                    nxt[v].append((score + w, nodes + (v,), edges + (e,)))
            for v in range(graph.num_nodes):
                nxt[v].sort(key=lambda t: -t[0])
                del nxt[v][k:]
            best = nxt

        if target is not None:
            finals = list(best[target])
        else:
            finals = [walk for v in range(graph.num_nodes) for walk in best[v]]
        finals.sort(key=lambda t: -t[0])
        finals = finals[:k]
        if not finals:
            raise ExplainerError("no walks found (graph has no layer edges)")

        nodes = np.array([walk[1] for walk in finals], dtype=np.int64)
        edges = np.array([walk[2] for walk in finals], dtype=np.int64)
        scores = np.array([walk[0] for walk in finals])
        return nodes, edges, scores

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        class_idx = self.predicted_class(graph, target=target)
        relevance = self._layer_edge_relevance(graph, class_idx, target)
        log_weights = np.where(relevance > 0, np.log(relevance + 1e-300), _LOG_FLOOR)

        nodes, edges, log_scores = self._k_best_walks(graph, log_weights, target)
        flow_index = FlowIndex(
            nodes=nodes,
            layer_edges=edges,
            num_layers=self.model.num_layers,
            num_edges=graph.num_edges,
            num_nodes=graph.num_nodes,
            target=target,
        )
        # Normalize to (0, 1] relative relevance for presentation.
        flow_scores = np.exp(log_scores - log_scores.max())
        return Explanation(
            edge_scores=flow_scores_to_edge_scores(flow_index, flow_scores),
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            flow_scores=flow_scores,
            flow_index=flow_index,
            meta={"params": {"k": self.k}, "log_scores": log_scores},
        )
