"""GNNExplainer (Ying et al., 2019).

Learns a single edge mask shared across all GNN layers by maximizing the
mutual information between the masked prediction and the original one:
``min -log P(Y=c | G ⊙ σ(m)) + α·|σ(m)| + β·H(σ(m))``. The paper runs it
for 500 epochs at lr 1e-2 (§V-A).

Counterfactual mode follows the paper's adaptation (§V-B): the objective
switches to Eq. (2) with the inverted sparsity regularizer, and the final
edge importance is ``1 − σ(m)`` — the edges the optimizer *removed* to
flip the prediction.

The mask is learned on the loop Revelio uses
(:func:`~repro.explain.mask_loop.learn_masks`), against the exact context
forward that :meth:`~Explainer.predicted_class` reads. A shared mask only
scales messages (Eq. 6), so a node target's forward runs layer ``l`` over
only the layer edges that can still reach the target
(:func:`~repro.explain.mask_loop.hop_layer_edges`), bit-exact at the target
row. Epochs after the first replay the first epoch's tape, so a frozen
layer 1's pre-mask messages are computed once; with a feature mask, layer
1's input is trainable and its messages are recomputed every epoch.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..graph import SampledSubgraph
from ..nn.models import GNN, LayerTrim
from ..rng import ensure_rng
from ..sparse import feature_dense, sparse_cache
from .base import Explainer, Explanation, check_int, check_real
from .mask_loop import (forward_meta, hop_layer_edges, learn_masks, mean_or_zero, outcome_loss,
                        target_log_prob)

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
        check_int("epochs", epochs, 1)
        check_real("lr", lr, 0, strict=True)
        check_real("size_weight", size_weight, 0)
        check_real("entropy_weight", entropy_weight, 0)
        check_real("feature_size_weight", feature_size_weight, 0)
        self.epochs = epochs
        self.lr = lr
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        self.feature_mask = feature_mask
        self.feature_size_weight = feature_size_weight

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        raw_mask = Tensor(rng.normal(0.0, 0.1, size=graph.num_edges), requires_grad=True)
        loop_block = Tensor(np.ones(graph.num_nodes))  # self-loops are never masked
        params = [raw_mask]
        raw_feature = None
        if self.feature_mask:
            raw_feature = Tensor(rng.normal(0.0, 0.1, size=graph.num_features),
                                 requires_grad=True)
            params.append(raw_feature)
        kept = hop_layer_edges(context, self.model.num_layers)
        trim = LayerTrim(kept)
        row = target if target is not None else 0

        def step() -> Tensor:
            mask = raw_mask.sigmoid()
            layer_mask = concat([mask, loop_block])
            layer_masks = [layer_mask.gather_rows(ids) for ids in kept]
            if raw_feature is None:
                logits = self.model.forward_graph(graph, edge_masks=layer_masks, trim=trim)
            else:
                x = Tensor(feature_dense(graph.x)) * raw_feature.sigmoid()
                logits = self.model.forward(x, graph.edge_index, graph.num_nodes,
                                            edge_masks=layer_masks,
                                            cache=sparse_cache(graph), trim=trim)
            log_p = target_log_prob(logits, row, class_idx)
            entropy = -mean_or_zero(mask * mask.clip(1e-8, 1.0).log()
                                    + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log())
            size = mask.sum() if mode == "factual" else (1.0 - mask).sum()
            regularizer = self.size_weight * size + self.entropy_weight * entropy
            if raw_feature is not None:
                regularizer = regularizer + self.feature_size_weight * raw_feature.sigmoid().sum()
            return outcome_loss(log_p, mode) + regularizer

        loss_meta = learn_masks(params, step, epochs=self.epochs, lr=self.lr,
                                num_edges=graph.num_edges)

        scores = raw_mask.sigmoid().numpy().copy()
        if mode == "counterfactual":
            scores = 1.0 - scores
        meta: dict = {**loss_meta, "params": {"epochs": self.epochs, "lr": self.lr},
                      "mean_edge_mask": float(scores.mean()) if scores.size else 0.0,
                      **forward_meta(trim, self.model.num_layers,
                                     graph.num_edges + graph.num_nodes, graph.num_nodes)}
        if raw_feature is not None:
            meta["feature_scores"] = raw_feature.sigmoid().numpy().copy()
        return Explanation(
            edge_scores=scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            meta=meta,
        )
