"""Random-score baseline.

Not part of the paper's comparison; used in tests as a sanity floor —
every real method should beat it on fidelity/AUC — and useful to users as
a null explainer.
"""

from __future__ import annotations

from ..graph import SampledSubgraph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation

__all__ = ["RandomExplainer"]


class RandomExplainer(Explainer):
    """Assigns uniform random importance to every edge."""

    name = "random"

    def __init__(self, model: GNN, seed: int = 0):
        super().__init__(model, seed=seed)
        self._rng = ensure_rng(seed)

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        return Explanation(
            edge_scores=self._rng.random(graph.num_edges),
            predicted_class=self.predicted_class(graph, target=target),
            method=self.name,
            mode=mode,
        )
