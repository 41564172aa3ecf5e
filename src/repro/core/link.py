"""Flow explanation of link predictions.

The paper applies Revelio to node and graph classification; link
prediction is the third message-passing task its §II lists. The extension
is mechanically natural: a predicted link ``(u, v)`` depends on the
message flows ending at *either endpoint*, so the flow set is the union of
the two endpoints' flow sets and the objective is the link probability:

    factual          min −log σ(z_u · z_v)        (keep the link)
    counterfactual   min −log (1 − σ(z_u · z_v))  (break the link)

with exactly the Eq. (4)/(5) mask transformation of node-level Revelio:
both run :func:`~repro.core.optimize.optimize_flow_masks`, and the link
passes its log-probability as the objective's ``log P``.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..errors import ExplainerError
from ..explain.base import Explanation, traced_explain
from ..explain.target import ExplainTarget, require_target
from ..flows import FlowIndex, cached_enumerate_flows
from ..graph import Graph, extract_receptive_field
from ..nn.link_prediction import LinkPredictor
from ..nn.models import LayerTrim
from ..rng import ensure_rng
from .optimize import FlowMaskSettings, optimize_flow_masks

__all__ = ["LinkRevelio"]


class LinkRevelio:
    """Revelio for link prediction targets.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.link_prediction.LinkPredictor`.
    epochs, lr, alpha, mask_activation, layer_weight_activation, max_flows,
    seed:
        As in :class:`~repro.core.Revelio`.
    """

    name = "link_revelio"
    is_flow_based = True

    def __init__(self, model: LinkPredictor, epochs: int = 300, lr: float = 1e-2,
                 alpha: float = 0.05, mask_activation: str = "tanh",
                 layer_weight_activation: str = "exp",
                 max_flows: int = 2_000_000, seed: int = 0):
        self.settings = FlowMaskSettings(epochs, lr, alpha, mask_activation,
                                         layer_weight_activation)
        self.model = model
        self.max_flows = max_flows
        self.seed = seed
        model.eval()
        model.freeze()

    # ------------------------------------------------------------------
    def _link_flows(self, graph: Graph, u: int, v: int) -> FlowIndex:
        """Flows ending at either endpoint, as one FlowIndex.

        Flows ending at different nodes are distinct, so the union is a
        concatenation; a self-link ``u == v`` takes its one flow set once.
        """
        parts = [cached_enumerate_flows(graph, self.model.num_layers, target=t,
                                        max_flows=self.max_flows)
                 for t in dict.fromkeys((u, v))]
        return FlowIndex(
            nodes=np.concatenate([fi.nodes for fi in parts]),
            layer_edges=np.concatenate([fi.layer_edges for fi in parts]),
            num_layers=self.model.num_layers,
            num_edges=graph.num_edges,
            num_nodes=graph.num_nodes,
            target=None,
        )

    # ------------------------------------------------------------------
    def explain(self, graph: Graph, target: ExplainTarget | None = None,
                mode: str = "factual") -> Explanation:
        """Explain a predicted link via message-flow masks.

        ``target`` is an ``ExplainTarget.link(u, v)``; any other shape
        (including a bare ``(u, v)`` tuple) raises
        :class:`~repro.errors.ExplainerError`.
        """
        target = require_target(target, task="link", where=f"{self.name}.explain")
        if target is None or target.kind != "link":
            raise ExplainerError(
                f"link explanation requires an ExplainTarget.link(u, v) target, "
                f"got {target!r}")
        u, v = target.endpoints
        if mode not in ("factual", "counterfactual"):
            raise ExplainerError(f"unknown mode {mode!r}")
        for node in (u, v):
            if not 0 <= node < graph.num_nodes:
                raise ExplainerError(f"node {node} out of range")

        return traced_explain(self.name, mode, lambda: self._explain_link(graph, u, v, mode))

    def _explain_link(self, graph: Graph, u: int, v: int, mode: str) -> Explanation:
        # One union extraction: the backward BFS expands from both
        # endpoints at once.
        context = extract_receptive_field(graph, [u, v], self.model.num_layers)
        subgraph, (lu, lv) = context.subgraph, context.local_targets
        flow_index = self._link_flows(subgraph, lu, lv)
        pair = np.array([[lu, lv]])
        trim = LayerTrim(flow_index.used_layer_edge_ids())

        def log_prob(layer_masks: list[Tensor]) -> Tensor:
            logit = self.model.link_logits(subgraph, pair, edge_masks=layer_masks,
                                           trim=trim)[0]
            return logit.sigmoid().clip(1e-12, 1.0 - 1e-12).log()

        explanation = optimize_flow_masks(
            self.settings, flow_index, log_prob, mode, ensure_rng(self.seed),
            method=self.name, predicted_class=1,  # the positive link class
            meta={"link": (int(u), int(v))}, trim=trim)
        local_scores = explanation.edge_scores
        explanation.edge_scores = np.zeros(graph.num_edges)
        explanation.edge_scores[context.edge_positions] = local_scores
        explanation.context_node_ids = context.node_ids
        explanation.context_edge_positions = context.edge_positions
        # The context forward is exact at both endpoints.
        explanation.meta["p_link"] = float(self.model.predict_proba(subgraph, pair)[0])
        return explanation
