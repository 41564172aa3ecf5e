"""Flow preselection — the paper's §VI future-work direction, implemented.

    "if one could identify the top-k most important message flows before
    using REVELIO, and only propagate those top-k flow masks, it would
    save a significant amount of memory, and improve running time."

This module provides cheap preliminary flow scores and the pruning logic
:class:`~repro.core.topk.TopKRevelio` uses: keep learnable masks only for
the ``k`` most promising flows; all remaining flows share a single
background mask, so the optimization problem shrinks from ``|F|`` to
``k + 1`` parameters while the masked forward stays exact.

Three preselection strategies, all far cheaper than mask learning:

``"gradient"``
    One backward pass: the gradient of the class log-probability w.r.t. an
    all-ones layer-edge mask, accumulated along each flow's path (first-
    order Taylor estimate of the flow's leverage).
``"walk_weight"``
    Data-independent: the product of per-edge propagation weights (GCN
    normalization coefficients, or uniform for other convs) along the
    path — flows through high-conductance paths rank first.
``"random"``
    Control strategy for ablations.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, log_softmax
from ..errors import ExplainerError
from ..flows import FlowIndex
from ..graph import Graph
from ..nn.message_passing import augment_edges
from ..nn.models import GNN
from ..rng import ensure_rng

__all__ = ["preselect_flows", "PRESELECT_STRATEGIES"]

PRESELECT_STRATEGIES = ("gradient", "walk_weight", "random")


def gradient_flow_scores(model: GNN, graph: Graph, flow_index: FlowIndex,
                         class_idx: int, target: int | None) -> np.ndarray:
    """First-order flow leverage from one backward pass.

    Runs the model with an all-ones mask that requires grad, backprops the
    class log-probability, and sums |∂ log p / ∂ ω[e^l]| over each flow's
    layer edges. Cost: one forward + one backward, independent of |F|.
    """
    masks = [Tensor(np.ones(flow_index.num_layer_edges), requires_grad=True)
             for _ in range(flow_index.num_layers)]
    logits = model.forward_graph(graph, edge_masks=masks)
    log_probs = log_softmax(logits, axis=-1)
    row = target if target is not None else 0
    log_probs[row, class_idx].backward()

    grads = np.stack([
        (m.grad.reshape(-1) if m.grad is not None else np.zeros(flow_index.num_layer_edges))
        for m in masks
    ])
    scores = np.zeros(flow_index.num_flows)
    for l in range(flow_index.num_layers):
        scores += np.abs(grads[l, flow_index.layer_edges[:, l]])
    return scores


def walk_weight_flow_scores(graph: Graph, flow_index: FlowIndex) -> np.ndarray:
    """Structural flow scores: product of GCN propagation weights per path."""
    src, dst = augment_edges(graph.edge_index, graph.num_nodes)
    deg = np.bincount(dst, minlength=graph.num_nodes).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
    edge_weight = inv_sqrt[src] * inv_sqrt[dst]

    scores = np.ones(flow_index.num_flows)
    for l in range(flow_index.num_layers):
        scores *= edge_weight[flow_index.layer_edges[:, l]]
    return scores


def preselect_flows(model: GNN, graph: Graph, flow_index: FlowIndex, k: int,
                    class_idx: int, target: int | None,
                    strategy: str = "gradient",
                    seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Indices of the ``k`` most promising flows under a cheap strategy.

    Returns all flows (identity selection) when ``k >= |F|``.
    """
    if strategy not in PRESELECT_STRATEGIES:
        raise ExplainerError(
            f"unknown preselect strategy {strategy!r}; expected one of {PRESELECT_STRATEGIES}"
        )
    if k <= 0:
        raise ExplainerError("preselection k must be positive")
    if k >= flow_index.num_flows:
        return np.arange(flow_index.num_flows)

    if strategy == "gradient":
        scores = gradient_flow_scores(model, graph, flow_index, class_idx, target)
    elif strategy == "walk_weight":
        scores = walk_weight_flow_scores(graph, flow_index)
    else:
        scores = ensure_rng(seed).random(flow_index.num_flows)
    return np.argsort(-scores, kind="stable")[:k]
