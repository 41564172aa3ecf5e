"""Shared machinery for flow-based explainers (Revelio, FlowX, GNN-LRP).

Provides masked-forward probability evaluation without autograd overhead
and the flow-score → edge-score transfer used to compare flow methods with
edge-level baselines under the paper's fidelity protocol.
"""

from __future__ import annotations

import numpy as np

from ..flows import FlowIndex
from ..graph import Graph
from ..nn.models import GNN, LayerTrim

__all__ = ["masked_probability_batch", "layer_scores_to_edge_scores",
           "flow_scores_to_edge_scores"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on arrays."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def masked_probability_batch(model: GNN, graph: Graph, mask_stack: np.ndarray,
                             class_idx: int, target_row: int | None, *,
                             structural: bool = False,
                             trim: LayerTrim | None = None) -> np.ndarray:
    """``P(class | graph, masks_b)`` for each of a stack of mask sets, no tape.

    Parameters
    ----------
    mask_stack:
        ``(B, L, E+N)`` float multipliers; each of the ``B`` rows is one
        complete per-layer mask set.
    target_row:
        Output row to read — a *local* index into ``graph`` (explainers
        call this on the context subgraph), not an
        :class:`~repro.explain.target.ExplainTarget`; ``None`` reads row
        0 (graph tasks).
    structural:
        Binary masks remove edges exactly (see
        :meth:`~repro.nn.models.GNN.forward_masked_batch`).
    trim:
        The explanation's :class:`~repro.nn.LayerTrim` (a node target,
        multiplicative masks): each layer runs over only the layer edges
        that reach ``target_row``, whose probability stays bit for bit.

    Returns
    -------
    np.ndarray
        ``(B,)`` probabilities ``P(class | graph, masks_b)``.
    """
    probs = model.predict_proba_batch(graph, mask_stack, structural=structural, trim=trim)
    row = target_row if target_row is not None else 0
    return probs[:, row, class_idx]


def layer_scores_to_edge_scores(layer_scores: np.ndarray, flow_index: FlowIndex) -> np.ndarray:
    """Whole-GNN data-edge importance from ``(L, E+N)`` layer-edge scores.

    The paper transfers flow scores "into the importance scores for edges
    within individual GNN layers or across the entire GNN"; the across-GNN
    transfer averages each data edge's per-layer scores over the layers
    where it actually carries flows (zero where it carries none).
    """
    num_edges = flow_index.num_edges
    scores = layer_scores[:, :num_edges]
    mask = flow_index.used_layer_edges()[:, :num_edges]
    counts = np.maximum(mask.sum(axis=0), 1)
    return (scores * mask).sum(axis=0) / counts


def flow_scores_to_edge_scores(flow_index: FlowIndex, flow_scores: np.ndarray) -> np.ndarray:
    """Whole-GNN data-edge importance from per-flow scores.

    Accumulates flow scores per layer edge (Eq. 3), squashes with a sigmoid
    to keep layers comparable, and transfers them with
    :func:`layer_scores_to_edge_scores` — Revelio's transfer, applied to
    externally-computed flow scores.
    """
    accumulated = flow_index.aggregate_scores_np(np.asarray(flow_scores, dtype=np.float64))
    return layer_scores_to_edge_scores(sigmoid(accumulated), flow_index)
