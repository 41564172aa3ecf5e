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

from ..errors import ExplainerError
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation, check_int, check_real

__all__ = ["PGMExplainer"]

PERTURB_MODES = ("zero", "mean")


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

    All perturbation rounds are evaluated in chunked batched forwards over
    a feature stack.
    """

    name = "pgm_explainer"

    # Perturbation rounds per batched forward.
    BATCH_CHUNK = 256

    def __init__(self, model: GNN, num_samples: int = 100, perturb_prob: float = 0.5,
                 perturb_mode: str = "zero", seed: int = 0):
        check_int("num_samples", num_samples, 1)
        check_real("perturb_prob", perturb_prob, 0, high=1)
        if perturb_mode not in PERTURB_MODES:
            raise ExplainerError(
                f"perturb_mode must be one of {PERTURB_MODES}, got {perturb_mode!r}")
        super().__init__(model, seed=seed)
        self.num_samples = num_samples
        self.perturb_prob = perturb_prob
        self.perturb_mode = perturb_mode

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
        p_samples = self._round_probabilities(graph, perturbed_flags, replacement,
                                              row, class_idx)
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

    def _round_probabilities(self, graph: Graph, flags: np.ndarray,
                             replacement: np.ndarray, row: int,
                             class_idx: int) -> np.ndarray:
        """Explained-class probability under each round's perturbed features."""
        p_samples = np.empty(len(flags))
        for start in range(0, len(flags), self.BATCH_CHUNK):
            chunk = flags[start:start + self.BATCH_CHUNK]
            x_stack = np.where(chunk[:, :, None], replacement[None, :, :],
                               graph.x[None, :, :])
            proba = self.model.predict_proba_batch(graph, x_stack=x_stack)
            p_samples[start:start + self.BATCH_CHUNK] = proba[:, row, class_idx]
        return p_samples
