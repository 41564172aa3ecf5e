"""Explanation stability: variance under seeds and input perturbations.

Faithfulness evaluations (the paper's Figs. 3/4) measure quality against
the model; stability measures *reliability* — does the method return the
same explanation when its own randomness or irrelevant parts of the input
change? Both axes matter for deployment, and learning-based explainers
(Revelio, GNNExplainer) are stochastic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import EvaluationError
from ..explain.base import Explanation
from ..explain.target import ExplainTarget
from ..graph import Graph
from ..rng import spawn_rngs
from ..sparse import feature_dense
from .agreement import edge_rank_correlation, top_edge_overlap

__all__ = ["StabilityReport", "seed_stability", "perturbation_stability"]


@dataclass
class StabilityReport:
    """Aggregate stability statistics over repeated explanations."""

    mean_rank_correlation: float
    mean_top_k_overlap: float
    score_std: float
    num_runs: int

    def __repr__(self) -> str:
        return (
            f"StabilityReport(rank_corr={self.mean_rank_correlation:.3f}, "
            f"top_k_overlap={self.mean_top_k_overlap:.3f}, "
            f"score_std={self.score_std:.4f}, runs={self.num_runs})"
        )


def _pairwise_report(explanations: list[Explanation], k: int) -> StabilityReport:
    if len(explanations) < 2:
        raise EvaluationError("stability needs at least two runs")
    correlations, overlaps = [], []
    for i in range(len(explanations)):
        for j in range(i + 1, len(explanations)):
            correlations.append(edge_rank_correlation(explanations[i], explanations[j]))
            overlaps.append(top_edge_overlap(explanations[i], explanations[j], k=k))
    stacked = np.stack([e.edge_scores for e in explanations])
    return StabilityReport(
        mean_rank_correlation=float(np.mean(correlations)),
        mean_top_k_overlap=float(np.mean(overlaps)),
        score_std=float(stacked.std(axis=0).mean()),
        num_runs=len(explanations),
    )


def seed_stability(make_explainer: Callable[[int], object], graph: Graph,
                   target: ExplainTarget | None = None, num_seeds: int = 5,
                   mode: str = "factual", k: int = 10) -> StabilityReport:
    """Stability of one method across its own random seeds.

    Parameters
    ----------
    make_explainer:
        Factory ``seed -> Explainer`` (so each run is independently seeded).
    """
    explanations = [
        make_explainer(seed).explain(graph, target=target, mode=mode)
        for seed in range(num_seeds)
    ]
    return _pairwise_report(explanations, k)


def perturbation_stability(explainer, graph: Graph, target: ExplainTarget | None = None,
                           num_perturbations: int = 5, feature_noise: float = 0.05,
                           mode: str = "factual", k: int = 10,
                           seed: int | np.random.Generator | None = 0) -> StabilityReport:
    """Stability under small Gaussian feature noise on the input graph.

    A faithful explanation of a robust prediction should not churn when
    features move imperceptibly.
    """
    rngs = spawn_rngs(seed, num_perturbations)
    explanations = [explainer.explain(graph, target=target, mode=mode)]
    for rng in rngs:
        noisy = graph.copy()
        noisy.x = feature_dense(noisy.x) + rng.normal(0.0, feature_noise,
                                                      size=noisy.x.shape)
        explanations.append(explainer.explain(noisy, target=target, mode=mode))
    return _pairwise_report(explanations, k)
