"""PGM-Explainer (Vu & Thai, 2020), node-centric surrogate method.

Randomly perturbs node features, records which perturbations flip (or
significantly change) the prediction, and runs a chi-square dependence
test between each node's perturbation indicator and the prediction-change
indicator. Nodes with strong dependence are the explanation; edge scores
are derived as the mean importance of an edge's endpoints (the paper's
baselines all need edge scores for the fidelity protocol).

Black-box: only prediction queries are used, never gradients.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation

__all__ = ["PGMExplainer"]


class PGMExplainer(Explainer):
    """Perturbation + chi-square dependence testing.

    Parameters
    ----------
    num_samples:
        Perturbation rounds (reference default 100).
    perturb_prob:
        Probability each node is perturbed in a round.
    perturb_mode:
        ``"zero"`` (clear features) or ``"mean"`` (set to dataset mean).
    batched:
        Evaluate all perturbation rounds in chunked batched forwards over
        a feature stack instead of one forward per round. Randomness is
        drawn in the same order either way.
    """

    name = "pgm_explainer"

    # Perturbation rounds per batched forward.
    BATCH_CHUNK = 256

    def __init__(self, model: GNN, num_samples: int = 100, perturb_prob: float = 0.5,
                 perturb_mode: str = "zero", batched: bool = True, seed: int = 0):
        super().__init__(model, seed=seed)
        self.num_samples = num_samples
        self.perturb_prob = perturb_prob
        self.perturb_mode = perturb_mode
        self.batched = batched

    def _explain_instance(self, graph: Graph, target: int | None,
                          mode: str) -> Explanation:
        node_scores, class_idx = self._node_importance(graph, target=target)
        edge_scores = 0.5 * (node_scores[graph.src] + node_scores[graph.dst])
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            meta={"params": {"num_samples": self.num_samples}},
        )

    # ------------------------------------------------------------------
    def _node_importance(self, graph: Graph, target: int | None) -> tuple[np.ndarray, int]:
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        proba = self.model.predict_proba(graph)
        base_p = float((proba[target] if target is not None else proba[0])[class_idx])

        replacement = np.zeros_like(graph.x) if self.perturb_mode == "zero" \
            else np.broadcast_to(graph.x.mean(axis=0), graph.x.shape)

        perturbed_flags = np.zeros((self.num_samples, graph.num_nodes), dtype=bool)
        for s in range(self.num_samples):
            perturbed_flags[s] = rng.random(graph.num_nodes) < self.perturb_prob

        row = target if target is not None else 0
        if self.batched:
            p_samples = np.empty(self.num_samples)
            for start in range(0, self.num_samples, self.BATCH_CHUNK):
                flags = perturbed_flags[start:start + self.BATCH_CHUNK]
                x_stack = np.where(flags[:, :, None], replacement[None, :, :],
                                   graph.x[None, :, :])
                proba = self.model.predict_proba_batch(graph, x_stack=x_stack)
                p_samples[start:start + self.BATCH_CHUNK] = proba[:, row, class_idx]
        else:
            p_samples = np.empty(self.num_samples)
            work = graph.copy()
            for s in range(self.num_samples):
                work.x = np.where(perturbed_flags[s][:, None], replacement, graph.x)
                proba = self.model.predict_proba(work)
                p_samples[s] = float((proba[target] if target is not None else proba[0])[class_idx])
        # "Changed" = the predicted probability dropped noticeably.
        changed = (base_p - p_samples) > 0.1 * base_p

        scores = np.zeros(graph.num_nodes)
        n_changed = int(changed.sum())
        if n_changed == 0 or n_changed == self.num_samples:
            return scores, class_idx  # no signal in the samples
        for v in range(graph.num_nodes):
            table = np.array([
                [np.sum(perturbed_flags[:, v] & changed),
                 np.sum(perturbed_flags[:, v] & ~changed)],
                [np.sum(~perturbed_flags[:, v] & changed),
                 np.sum(~perturbed_flags[:, v] & ~changed)],
            ], dtype=np.float64)
            if table.sum(axis=1).min() == 0 or table.sum(axis=0).min() == 0:
                continue
            chi2 = stats.chi2_contingency(table, correction=False).statistic
            # Signed by direction: perturbing an important node should
            # co-occur with prediction change.
            expected = table.sum(axis=1)[0] * table.sum(axis=0)[0] / table.sum()
            sign = 1.0 if table[0, 0] >= expected else -1.0
            scores[v] = sign * chi2
        return scores, class_idx
