"""GNNExplainer (Ying et al., 2019).

Learns a single edge mask shared across all GNN layers by maximizing the
mutual information between the masked prediction and the original one:
``min -log P(Y=c | G ⊙ σ(m)) + α·|σ(m)| + β·H(σ(m))``. The paper runs it
for 500 epochs at lr 1e-2 (§V-A).

Counterfactual mode follows the paper's adaptation (§V-B): the objective
switches to Eq. (2) with the inverted sparsity regularizer, and the final
edge importance is ``1 − σ(m)`` — the edges the optimizer *removed* to
flip the prediction.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Adam, Tensor, log_softmax
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation

__all__ = ["GNNExplainer"]


class GNNExplainer(Explainer):
    """Single shared edge-mask learner.

    Parameters
    ----------
    model:
        Pretrained target model.
    epochs, lr:
        Optimization schedule (paper: 500 epochs, lr 1e-2).
    size_weight, entropy_weight:
        Regularizer strengths (reference-implementation defaults).
    feature_mask:
        Also learn a node-feature mask, as in the original GNNExplainer;
        the learned per-feature scores land in ``meta["feature_scores"]``.
        The Revelio paper's comparison uses edge masks only (the default).
    feature_size_weight:
        Sparsity penalty on the feature mask (only with ``feature_mask``);
        features the prediction does not need are pushed toward zero.
    """

    name = "gnnexplainer"
    supports_counterfactual = True

    def __init__(self, model: GNN, epochs: int = 500, lr: float = 1e-2,
                 size_weight: float = 0.005, entropy_weight: float = 1.0,
                 feature_mask: bool = False, feature_size_weight: float = 0.1,
                 seed: int = 0):
        super().__init__(model, seed=seed)
        self.epochs = epochs
        self.lr = lr
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        self.feature_mask = feature_mask
        self.feature_size_weight = feature_size_weight

    def _explain_instance(self, graph: Graph, target: int | None,
                          mode: str) -> Explanation:
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        num_edges, num_nodes = graph.num_edges, graph.num_nodes

        raw_mask = Tensor(rng.normal(0.0, 0.1, size=num_edges), requires_grad=True)
        loop_block = Tensor(np.ones(num_nodes))  # self-loops are never masked
        params = [raw_mask]
        raw_feature = None
        if self.feature_mask:
            raw_feature = Tensor(rng.normal(0.0, 0.1, size=graph.num_features),
                                 requires_grad=True)
            params.append(raw_feature)
        optimizer = Adam(params, lr=self.lr)
        row = target if target is not None else 0

        from ..autograd import concat

        for _ in range(self.epochs):
            optimizer.zero_grad()
            mask = raw_mask.sigmoid()
            layer_mask = concat([mask, loop_block])
            layer_masks = [layer_mask] * self.model.num_layers
            x = Tensor(graph.x)
            if raw_feature is not None:
                x = x * raw_feature.sigmoid()
            logits = self.model.forward(x, graph.edge_index, graph.num_nodes,
                                        edge_masks=layer_masks)
            log_probs = log_softmax(logits, axis=-1)
            log_p = log_probs[row, class_idx]
            entropy = -(mask * mask.clip(1e-8, 1.0).log()
                        + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log()).mean()
            if mode == "factual":
                objective = -log_p
                size = mask.sum()
            else:
                p = log_p.exp()
                objective = -(1.0 - p.clip(0.0, 1.0 - 1e-12)).log()
                size = (1.0 - mask).sum()
            loss = objective + self.size_weight * size + self.entropy_weight * entropy
            if raw_feature is not None:
                loss = loss + self.feature_size_weight * raw_feature.sigmoid().sum()
            loss.backward()
            optimizer.step()

        scores = raw_mask.sigmoid().numpy().copy()
        if mode == "counterfactual":
            scores = 1.0 - scores
        meta: dict = {"params": {"epochs": self.epochs, "lr": self.lr}}
        if raw_feature is not None:
            meta["feature_scores"] = raw_feature.sigmoid().numpy().copy()
        return Explanation(
            edge_scores=scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            meta=meta,
        )
