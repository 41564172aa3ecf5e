"""Flow explanation of link predictions.

The paper applies Revelio to node and graph classification; link
prediction is the third message-passing task its §II lists. The extension
is mechanically natural: a predicted link ``(u, v)`` depends on the
message flows ending at *either endpoint*, so the flow set is the union of
the two endpoints' flow sets and the objective is the link probability:

    factual          min −log σ(z_u · z_v)        (keep the link)
    counterfactual   min −log (1 − σ(z_u · z_v))  (break the link)

with exactly the Eq. (4)/(5) mask transformation of node-level Revelio.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..autograd import Adam, Tensor
from ..errors import ExplainerError
from ..explain.base import Explanation
from ..explain.target import ExplainTarget
from ..flows import FlowIndex, cached_enumerate_flows
from ..graph import Graph, extract_receptive_field
from ..nn.link_prediction import LinkPredictor
from ..rng import ensure_rng
from .revelio import LAYER_WEIGHT_ACTIVATIONS, MASK_ACTIVATIONS, Revelio

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
        if mask_activation not in MASK_ACTIVATIONS:
            raise ExplainerError(f"mask_activation must be one of {MASK_ACTIVATIONS}")
        if layer_weight_activation not in LAYER_WEIGHT_ACTIVATIONS:
            raise ExplainerError(
                f"layer_weight_activation must be one of {LAYER_WEIGHT_ACTIVATIONS}")
        self.model = model
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.mask_activation = mask_activation
        self.layer_weight_activation = layer_weight_activation
        self.max_flows = max_flows
        self.seed = seed
        model.eval()
        model.freeze()

    # Reuse Revelio's transformation statics through small shims.
    _flow_scores = Revelio._flow_scores
    _layer_scale = Revelio._layer_scale
    _layer_edge_scores = Revelio._layer_edge_scores
    _edges_from_layers = staticmethod(Revelio._edges_from_layers)

    # ------------------------------------------------------------------
    def link_context(self, graph: Graph, u: int, v: int):
        """Union of the two endpoints' L-hop incoming neighborhoods.

        One batched extraction: the backward BFS expands from both
        endpoints simultaneously, so the union is computed inside the
        frontier loop instead of as a Python-level merge of two
        single-target traversals.
        """
        field = extract_receptive_field(graph, [u, v], self.model.num_layers)
        lu, lv = field.local_targets
        return field.graph, field.node_ids, field.edge_positions, lu, lv

    def _link_flows(self, graph: Graph, u: int, v: int) -> FlowIndex:
        """Flows ending at either endpoint, as one FlowIndex."""
        fi_u = cached_enumerate_flows(graph, self.model.num_layers, target=u,
                                      max_flows=self.max_flows)
        fi_v = cached_enumerate_flows(graph, self.model.num_layers, target=v,
                                      max_flows=self.max_flows)
        return FlowIndex(
            nodes=np.concatenate([fi_u.nodes, fi_v.nodes]),
            layer_edges=np.concatenate([fi_u.layer_edges, fi_v.layer_edges]),
            num_layers=self.model.num_layers,
            num_edges=graph.num_edges,
            num_nodes=graph.num_nodes,
            target=None,
        )

    # ------------------------------------------------------------------
    def explain(self, graph: Graph, target: ExplainTarget | int | None = None,
                _legacy_v: int | None = None, mode: str = "factual") -> Explanation:
        """Explain a predicted link via message-flow masks.

        ``target`` is an ``ExplainTarget.link(u, v)``. The historical
        ``explain(graph, u, v[, mode])`` positional form (and a bare
        ``(u, v)`` tuple) keeps working one release behind a
        ``DeprecationWarning``.
        """
        if _legacy_v is not None:
            warnings.warn(  # repro: sunset[2.0]
                "link_revelio.explain(graph, u, v) is deprecated; pass "
                "ExplainTarget.link(u, v)", DeprecationWarning, stacklevel=2)
            target = ExplainTarget.link(int(target), int(_legacy_v))  # type: ignore[arg-type]
        else:
            target = ExplainTarget.coerce(target, task="node",
                                          where=f"{self.name}.explain")
        if not isinstance(target, ExplainTarget) or target.kind != "link":
            raise ExplainerError(
                f"link explanation requires an ExplainTarget.link(u, v) target, "
                f"got {target!r}")
        u, v = target.endpoints
        if mode not in ("factual", "counterfactual"):
            raise ExplainerError(f"unknown mode {mode!r}")
        for node in (u, v):
            if not 0 <= node < graph.num_nodes:
                raise ExplainerError(f"node {node} out of range")

        subgraph, node_ids, edge_positions, lu, lv = self.link_context(graph, u, v)
        flow_index = self._link_flows(subgraph, lu, lv)
        if flow_index.num_flows == 0:
            raise ExplainerError("link has no message flows to explain")

        rng = ensure_rng(self.seed)
        used = flow_index.used_layer_edges()
        used_tensor = Tensor(used.astype(np.float64))
        num_used = float(used.sum())
        pair = np.array([[lu, lv]])

        masks = Tensor(rng.normal(0.0, 0.1, size=flow_index.num_flows), requires_grad=True)
        w = Tensor(np.zeros(flow_index.num_layers), requires_grad=True)
        optimizer = Adam([masks, w], lr=self.lr)
        losses = []
        for _ in range(self.epochs):
            optimizer.zero_grad()
            omega_e = self._layer_edge_scores(masks, w, flow_index)
            layer_masks = [omega_e[l] for l in range(flow_index.num_layers)]
            logit = self.model.link_logits(subgraph, pair, edge_masks=layer_masks)[0]
            p = logit.sigmoid().clip(1e-12, 1.0 - 1e-12)
            if mode == "factual":
                objective = -p.log()
                regularizer = (omega_e * used_tensor).sum() / num_used
            else:
                objective = -(1.0 - p).log()
                regularizer = ((1.0 - omega_e) * used_tensor).sum() / num_used
            loss = objective + self.alpha * regularizer
            loss.backward()
            optimizer.step()
            losses.append(loss.item())

        omega_f = self._flow_scores(masks).numpy().copy()
        omega_e = self._layer_edge_scores(masks, w, flow_index).numpy().copy()
        if mode == "counterfactual":
            omega_f = -omega_f
            omega_e = 1.0 - omega_e

        local_edge_scores = self._edges_from_layers(omega_e, used, flow_index)
        edge_scores = np.zeros(graph.num_edges)
        edge_scores[edge_positions] = local_edge_scores
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=1,  # the positive link class
            method=self.name,
            mode=mode,
            layer_edge_scores=omega_e,
            flow_scores=omega_f,
            flow_index=flow_index,
            context_node_ids=node_ids,
            context_edge_positions=edge_positions,
            meta={
                "link": (int(u), int(v)),
                "final_loss": losses[-1],
                "num_flows": flow_index.num_flows,
                # The context forward is exact at both endpoints.
                "p_link": float(self.model.predict_proba(subgraph, pair)[0]),
            },
        )
