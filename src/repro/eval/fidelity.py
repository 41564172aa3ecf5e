"""Fidelity metrics (paper Eqs. 10 and 11).

``Fidelity− = mean_i [ P(y_i | G_i) − P(y_i | G_i^(s)) ]`` — probability
drop when keeping only the explanatory edges (smaller = better factual
explanation; negative values mean removing noise *raised* the predicted
probability).

``Fidelity+ = mean_i [ P(y_i | G_i) − P(y_i | G_i^(s̄)) ]`` — probability
drop after removing the explanatory edges (larger = better counterfactual
explanation).

``y_i`` is the model's predicted class on the original instance (the class
each explainer was asked to explain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError
from ..explain.base import Explanation
from ..explain.target import ExplainTarget, as_node_id
from ..graph import Graph
from ..nn.models import GNN
from ..obs import span
from ..obs.names import SPAN_FIDELITY_SWEEP
from .sparsity import (
    explanatory_keep_mask,
    explanatory_subgraph,
    unexplanatory_keep_mask,
    unexplanatory_subgraph,
)

__all__ = ["Instance", "class_probability", "fidelity_minus", "fidelity_plus",
           "fidelity_curve"]


@dataclass
class Instance:
    """One evaluation instance: a graph and what to explain in it.

    ``target`` is an :class:`~repro.explain.target.ExplainTarget`
    (``ExplainTarget.node(i)`` for node tasks, ``None`` for whole-graph
    instances); consumers read the node id through
    :func:`~repro.explain.target.as_node_id`.
    """

    graph: Graph
    target: ExplainTarget | None = None


def class_probability(model: GNN, graph: Graph, class_idx: int, *,
                      target: ExplainTarget | None = None) -> float:
    """``P_Φ(class | graph)`` at the target node / for the graph."""
    proba = model.predict_proba(graph)
    node = as_node_id(target)
    row = proba[node] if node is not None else proba[0]
    return float(row[class_idx])


def _fidelity(model: GNN, instances: list[Instance], explanations: list[Explanation],
              sparsity: float, *, remove_explanatory: bool) -> float:
    if len(instances) != len(explanations):
        raise EvaluationError(
            f"{len(instances)} instances but {len(explanations)} explanations"
        )
    if not instances:
        raise EvaluationError("fidelity requires at least one instance")
    drops = []
    for inst, exp in zip(instances, explanations):
        class_idx = exp.predicted_class
        p_orig = class_probability(model, inst.graph, class_idx, target=inst.target)
        builder = unexplanatory_subgraph if remove_explanatory else explanatory_subgraph
        perturbed = builder(inst.graph, exp.edge_scores, sparsity,
                            candidate_edges=exp.context_edge_positions)
        p_pert = class_probability(model, perturbed, class_idx, target=inst.target)
        drops.append(p_orig - p_pert)
    return float(np.mean(drops))


def fidelity_minus(model: GNN, instances: list[Instance],
                   explanations: list[Explanation], sparsity: float) -> float:
    """Eq. (10): mean probability drop keeping only explanatory edges."""
    return _fidelity(model, instances, explanations, sparsity, remove_explanatory=False)


def fidelity_plus(model: GNN, instances: list[Instance],
                  explanations: list[Explanation], sparsity: float) -> float:
    """Eq. (11): mean probability drop after removing explanatory edges."""
    return _fidelity(model, instances, explanations, sparsity, remove_explanatory=True)


def fidelity_curve(model: GNN, instances: list[Instance],
                   explanations: list[Explanation], sparsities: list[float],
                   *, metric: str = "minus") -> dict[float, float]:
    """Fidelity over a sparsity grid — one line of Fig. 3 / Fig. 4.

    Visits each instance once: ``p_orig`` is computed a single time and
    the whole sparsity grid is evaluated in one structural masked forward
    (binary retention masks are exact edge removal), so each point equals
    :func:`fidelity_minus` / :func:`fidelity_plus` at that sparsity.
    """
    if metric not in ("minus", "plus"):
        raise EvaluationError(f"metric must be 'minus' or 'plus', got {metric!r}")
    with span(SPAN_FIDELITY_SWEEP, metric=metric, num_instances=len(instances)):
        if len(instances) != len(explanations):
            raise EvaluationError(
                f"{len(instances)} instances but {len(explanations)} explanations"
            )
        if not instances:
            raise EvaluationError("fidelity requires at least one instance")
        mask_fn = unexplanatory_keep_mask if metric == "plus" else explanatory_keep_mask
        num_layers = model.num_layers
        drops = np.zeros(len(sparsities))
        for inst, exp in zip(instances, explanations):
            class_idx = exp.predicted_class
            p_orig = class_probability(model, inst.graph, class_idx, target=inst.target)
            E, N = inst.graph.num_edges, inst.graph.num_nodes
            mask_stack = np.ones((len(sparsities), num_layers, E + N))
            for j, s in enumerate(sparsities):
                keep = mask_fn(E, exp.edge_scores, float(s),
                               candidate_edges=exp.context_edge_positions)
                mask_stack[j, :, :E] = keep.astype(np.float64)
            probs = model.predict_proba_batch(inst.graph, mask_stack, structural=True)
            node = as_node_id(inst.target)
            row = node if node is not None else 0
            drops += p_orig - probs[:, row, class_idx]
        return {float(s): float(d / len(instances)) for s, d in zip(sparsities, drops)}
