"""Descriptive statistics over flow explanations.

How concentrated is the explanation mass, and how much of an instance's
flow importance passes through a chosen node set (e.g. a planted motif)?
"""

from __future__ import annotations

import numpy as np

from ..errors import EvaluationError
from ..explain.base import Explanation

__all__ = ["mass_through_nodes", "explanation_concentration"]


def mass_through_nodes(explanation: Explanation, nodes: set[int]) -> float:
    """Fraction of positive flow importance passing through ``nodes``.

    Node ids refer to the original graph when the explanation carries a
    context mapping.
    """
    if explanation.flow_scores is None or explanation.flow_index is None:
        raise EvaluationError(f"{explanation.method} carries no flow scores")
    sequences = explanation.flow_index.nodes
    if explanation.context_node_ids is not None:
        sequences = explanation.context_node_ids[sequences]
    weights = np.maximum(explanation.flow_scores, 0.0)
    total = weights.sum()
    if total <= 0:
        return 0.0
    hits = np.array([any(int(v) in nodes for v in seq) for seq in sequences])
    return float(weights[hits].sum() / total)


def explanation_concentration(explanation: Explanation, k: int = 10) -> float:
    """Share of total positive edge importance held by the top-``k`` edges.

    1.0 means the explanation is fully concentrated on k edges; values near
    k/E mean it is as diffuse as uniform scores.
    """
    scores = np.maximum(explanation.edge_scores, 0.0)
    total = scores.sum()
    if total <= 0:
        raise EvaluationError("explanation has no positive edge mass")
    top = scores[explanation.top_edges(k)]
    return float(top.sum() / total)
