"""Top-k Revelio: the paper's future-work efficiency variant.

Learns individual masks for only the ``k`` flows a cheap preselection pass
(:mod:`repro.core.preselect`) deems promising; every other flow shares a
single learnable *background* mask. The parameter count drops from
``|F|`` to ``k + 1`` and, more importantly, the per-epoch scatter work
shrinks to the selected flows — on dense instances where ``|F|`` explodes
this is the difference between feasible and not.

The masked forward stays exact: background flows still contribute to the
layer-edge accumulation (Eq. 3), just through a tied mask.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Adam, Tensor, log_softmax
from ..errors import ExplainerError
from ..explain.base import Explanation
from ..flows import FlowIndex
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from .preselect import PRESELECT_STRATEGIES, preselect_flows
from .revelio import Revelio

__all__ = ["TopKRevelio"]


class TopKRevelio(Revelio):
    """Revelio with flow preselection (paper §VI, "future work").

    Parameters
    ----------
    k:
        Number of flows that receive individual masks.
    strategy:
        Preselection strategy: ``"gradient"`` (default), ``"walk_weight"``
        or ``"random"`` (ablation control).
    (remaining parameters as in :class:`~repro.core.Revelio`)
    """

    name = "revelio_topk"

    def __init__(self, model: GNN, k: int = 64, strategy: str = "gradient",
                 **kwargs):
        super().__init__(model, **kwargs)
        if k <= 0:
            raise ExplainerError("k must be positive")
        if strategy not in PRESELECT_STRATEGIES:
            raise ExplainerError(
                f"unknown strategy {strategy!r}; expected one of {PRESELECT_STRATEGIES}"
            )
        self.k = k
        self.strategy = strategy

    def _memo_extras(self) -> tuple:
        return (self.k, self.strategy)

    # The learning loop overrides Revelio's `_optimize` to work on the
    # reduced parameterization.
    def _optimize(self, graph: Graph, flow_index: FlowIndex, mode: str,
                  target: int | None) -> Explanation:
        rng = ensure_rng(self.seed)
        if flow_index.num_flows == 0:
            raise ExplainerError("instance has no message flows to explain")
        class_idx = self.predicted_class(graph, target=target)

        selected = preselect_flows(self.model, graph, flow_index, self.k,
                                   class_idx, target, strategy=self.strategy,
                                   seed=rng)
        # Gather map: position i of the full mask vector reads parameter
        # slot selected_slot[i] (k slots for selected flows, slot k shared).
        slot = np.full(flow_index.num_flows, selected.size, dtype=np.int64)
        slot[selected] = np.arange(selected.size)

        params = Tensor(rng.normal(0.0, 0.1, size=selected.size + 1), requires_grad=True)
        w = Tensor(np.zeros(flow_index.num_layers), requires_grad=True)
        optimizer = Adam([params, w], lr=self.lr)

        used = flow_index.used_layer_edges()
        used_tensor = Tensor(used.astype(np.float64))
        num_used = float(used.sum())
        row = target if target is not None else 0
        losses = []
        for _ in range(self.epochs):
            optimizer.zero_grad()
            masks = params.gather_rows(slot)          # expand to |F| via tying
            omega_e = self._layer_edge_scores(masks, w, flow_index)
            layer_masks = [omega_e[l] for l in range(flow_index.num_layers)]
            log_probs = log_softmax(
                self.model.forward_graph(graph, edge_masks=layer_masks), axis=-1
            )
            log_p = log_probs[row, class_idx]
            if mode == "factual":
                objective = -log_p
                regularizer = (omega_e * used_tensor).sum() / num_used
            else:
                p = log_p.exp()
                objective = -(1.0 - p.clip(0.0, 1.0 - 1e-12)).log()
                regularizer = ((1.0 - omega_e) * used_tensor).sum() / num_used
            loss = objective + self.alpha * regularizer
            loss.backward()
            optimizer.step()
            losses.append(loss.item())

        full_masks = Tensor(params.numpy()[slot])
        omega_f = self._flow_scores(full_masks).numpy().copy()
        omega_e = self._layer_edge_scores(full_masks, w, flow_index).numpy().copy()
        if mode == "counterfactual":
            omega_f = -omega_f
            omega_e = 1.0 - omega_e

        edge_scores = self._edges_from_layers(omega_e, used, flow_index)
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            layer_edge_scores=omega_e,
            flow_scores=omega_f,
            flow_index=flow_index,
            meta={
                "final_loss": losses[-1],
                "params": {"epochs": self.epochs, "alpha": self.alpha,
                           "k": int(selected.size),
                           "strategy": self.strategy},
                "num_flows": flow_index.num_flows,
                "selected_flows": selected,
                "layer_weights": w.numpy().copy(),
            },
        )
