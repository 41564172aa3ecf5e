"""DeepLIFT (Shrikumar et al., 2017), Rescale-rule approximation.

For networks of ReLU-separable layers the Rescale rule coincides with
gradient × (input − baseline); with a zero baseline this is the classic
gradient×input attribution on node features. Node relevance is the sum of
its feature attributions toward the explained class; an edge scores the
mean relevance of its endpoints. Like GradCAM this needs one forward +
one backward per instance.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, log_softmax
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN
from ..sparse import feature_dense, sparse_cache
from .base import Explainer, Explanation

__all__ = ["DeepLIFT"]


class DeepLIFT(Explainer):
    """Gradient × (input − baseline) attribution on node features."""

    name = "deeplift"

    def __init__(self, model: GNN, baseline: float = 0.0, seed: int = 0):
        super().__init__(model, seed=seed)
        self.baseline = baseline

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        node_scores, class_idx = self._attributions(graph, target=target)
        edge_scores = 0.5 * (node_scores[graph.src] + node_scores[graph.dst])
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
        )

    def _attributions(self, graph: Graph, target: int | None) -> tuple[np.ndarray, int]:
        class_idx = self.predicted_class(graph, target=target)
        features = feature_dense(graph.x)
        x = Tensor(features, requires_grad=True)
        logits = self.model.forward(x, graph.edge_index, graph.num_nodes,
                                    cache=sparse_cache(graph))
        log_probs = log_softmax(logits, axis=-1)
        row = target if target is not None else 0
        log_probs[row, class_idx].backward()
        grads = x.grad if x.grad is not None else np.zeros_like(features)
        contributions = grads * (features - self.baseline)
        return contributions.sum(axis=1), class_idx
