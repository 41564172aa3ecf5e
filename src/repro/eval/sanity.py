"""Sanity checks for explanations (Adebayo et al., 2018 — the paper's [1]).

The model-randomization test: a *faithful* explanation must depend on the
model's learned parameters, so re-explaining with randomized weights
should produce a very different explanation. Methods whose output is
insensitive to the weights (e.g. ones that effectively echo graph
structure) fail the check — the critique the paper levels at LRP-style
attributions.

Also provides the data-randomization variant (random labels → retrained
model → explanations should change) in a lighter form: explanation vs. a
label-shuffled retrained target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.agreement import edge_rank_correlation, top_edge_overlap
from ..errors import EvaluationError
from ..explain.target import ExplainTarget
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng

__all__ = ["model_randomization_check"]


@dataclass
class SanityCheckResult:
    """Outcome of a model-randomization sanity check.

    Low similarity = the method passes (its explanations track the model).
    """

    rank_correlation: float
    top_k_overlap: float
    passes: bool
    threshold: float

    def __repr__(self) -> str:
        verdict = "PASS" if self.passes else "FAIL"
        return (
            f"SanityCheckResult({verdict}: rank_corr={self.rank_correlation:.3f}, "
            f"top_k_overlap={self.top_k_overlap:.2f}, threshold={self.threshold})"
        )


def randomize_model(model: GNN, *, rng: int | np.random.Generator | None = 0,
                    scale: float = 0.5) -> GNN:
    """Return a copy of ``model`` with weights re-drawn from N(0, scale²)."""
    rng = ensure_rng(rng)
    twin = model.clone()
    for param in twin.parameters():
        param.data = rng.normal(0.0, scale, size=param.shape)
    twin.eval()
    return twin


def model_randomization_check(explainer_factory, model: GNN, graph: Graph,
                              *, target: ExplainTarget | None = None, k: int = 10,
                              overlap_threshold: float = 0.6,
                              seed: int = 0) -> SanityCheckResult:
    """Run the Adebayo-style model-randomization test for one method.

    Parameters
    ----------
    explainer_factory:
        Callable ``model -> Explainer`` (fresh explainer per model so no
        state leaks across the two runs).
    model:
        The trained target.
    graph, target:
        The instance to explain.
    k, overlap_threshold:
        The check *passes* when the top-``k`` overlap between the trained
        and randomized explanations falls below ``overlap_threshold``.
    """
    trained_exp = explainer_factory(model).explain(graph, target=target)
    random_model = randomize_model(model, rng=seed)
    random_exp = explainer_factory(random_model).explain(graph, target=target)

    if trained_exp.edge_scores.shape != random_exp.edge_scores.shape:
        raise EvaluationError("explanations cover different edge sets")
    correlation = edge_rank_correlation(trained_exp, random_exp)
    overlap = top_edge_overlap(trained_exp, random_exp, k=k)
    return SanityCheckResult(
        rank_correlation=correlation,
        top_k_overlap=overlap,
        passes=overlap < overlap_threshold,
        threshold=overlap_threshold,
    )
