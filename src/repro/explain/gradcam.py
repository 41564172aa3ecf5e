"""Grad-CAM for GNNs (Pope et al., 2019; adapted from Selvaraju et al.).

Channel weights are the gradient of the explained class score with respect
to the final-layer node embeddings, globally averaged over nodes; the node
heat is the ReLU of the weighted embedding sum, and an edge scores the mean
heat of its endpoints. A white-box gradient method: one forward + one
backward per instance (the fastest row of Table V).
"""

from __future__ import annotations

import numpy as np

from ..autograd import log_softmax
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN
from ..sparse import feature_dense, sparse_cache
from .base import Explainer, Explanation

__all__ = ["GradCAM"]


class GradCAM(Explainer):
    """Gradient-weighted class activation mapping on node embeddings."""

    name = "gradcam"

    def __init__(self, model: GNN, seed: int = 0):
        super().__init__(model, seed=seed)

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        scores, class_idx = self._node_heat(graph, target=target)
        return Explanation(
            edge_scores=self._edges_from_nodes(graph, scores),
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
        )

    def _node_heat(self, graph: Graph, target: int | None) -> tuple[np.ndarray, int]:
        from ..autograd import Tensor

        class_idx = self.predicted_class(graph, target=target)
        # The model is frozen, so the tape must be rooted at the input for
        # intermediate gradients to exist.
        x = Tensor(feature_dense(graph.x), requires_grad=True)
        logits = self.model.forward(x, graph.edge_index, graph.num_nodes,
                                    cache=sparse_cache(graph))
        # Retain gradient on the final conv layer's embeddings.
        embeddings = self.model._last_embeddings[-1]
        embeddings.retain_grad()
        log_probs = log_softmax(logits, axis=-1)
        row = target if target is not None else 0
        log_probs[row, class_idx].backward()
        grads = embeddings.grad
        if grads is None:
            grads = np.zeros(embeddings.shape)
        activations = embeddings.numpy()
        channel_weights = grads.mean(axis=0)                     # global average pool
        heat = np.maximum(activations @ channel_weights, 0.0)    # ReLU(Σ_c α_c h_c)
        return heat, class_idx

    @staticmethod
    def _edges_from_nodes(graph: Graph, node_scores: np.ndarray) -> np.ndarray:
        return 0.5 * (node_scores[graph.src] + node_scores[graph.dst])
