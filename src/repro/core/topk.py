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

from ..errors import ExplainerError
from ..flows import FlowIndex
from ..graph import Graph
from ..nn.models import GNN
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

    def _mask_plan(self, graph: Graph, flow_index: FlowIndex, class_idx: int,
                   target: int | None, rng: np.random.Generator
                   ) -> tuple[tuple[np.ndarray, int], dict]:
        selected = preselect_flows(self.model, graph, flow_index, self.k,
                                   class_idx, target, strategy=self.strategy,
                                   seed=rng)
        # Flow i reads parameter slot[i]: k slots for selected flows, slot k
        # shared by every background flow.
        slot = np.full(flow_index.num_flows, selected.size, dtype=np.int64)
        slot[selected] = np.arange(selected.size)
        params = {**self.settings.params(), "k": int(selected.size),
                  "strategy": self.strategy}
        return (slot, selected.size + 1), {"params": params, "selected_flows": selected}
