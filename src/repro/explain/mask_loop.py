"""The one mask-learning loop (paper Eqs. 1/2) and the layer trim it runs on.

Revelio, TopKRevelio, LinkRevelio and GNNExplainer differ in how their
trainable tensors become per-layer edge masks and in their regularizer;
they share everything else. :func:`learn_masks` is that shared part: Adam
over the trainable tensors, the Eq. 1 (factual) or Eq. 2
(counterfactual) objective on ``log P(explained outcome)``, the
``optimize``/``epoch`` spans, the loss record and the convergence
``meta``. A caller passes one closure that runs its masked forward and
returns ``(log P, regularizer)``. The loop calls it once: epoch 1 records
its tape (:class:`~repro.autograd.Tape`) and epochs 2..T replay it on the
updated parameters — the same numpy calls in the same order, so each
epoch is bit-exact with rebuilding it, without rebuilding its tensors,
closures or backward order. Work on frozen inputs (a frozen layer 1's
pre-mask messages) is off the tape and done once.

:func:`hop_layer_edges` is the layer trim of a node-level mask learner
whose masks only scale messages (Eq. 6): layer ``l`` of an ``L``-layer
model reaches the target only through the in-edges of nodes within
``L − 1 − l`` hops of it, so a :class:`~repro.nn.LayerTrim` of those ids
computes the target row bit for bit. They are exactly the layer edges a
flow ending at the target crosses (``FlowIndex.used_layer_edge_ids``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..autograd import Adam, Tape, Tensor
from ..graph import Graph, khop_in_nodes
from ..obs import span
from ..obs.names import SPAN_EPOCH, SPAN_OPTIMIZE

__all__ = ["learn_masks", "outcome_loss", "hop_layer_edges", "forward_layer_edges",
           "forward_layer_rows", "converged", "CONVERGENCE_RTOL"]

#: ``meta["converged"]``: the loss moved by less than this fraction of
#: itself over the last 10% of epochs.
CONVERGENCE_RTOL = 1e-3


def outcome_loss(log_p: Tensor, mode: str) -> Tensor:
    """Eq. (1) ``−log P`` (factual) or Eq. (2) ``−log(1 − P)``
    (counterfactual: BCE against target 0 for the explained outcome)."""
    if mode == "factual":
        return -log_p
    p = log_p.exp()
    return -(1.0 - p.clip(0.0, 1.0 - 1e-12)).log()


def learn_masks(params: Sequence[Tensor], step: Callable[[], tuple[Tensor, Tensor]],
                *, epochs: int, lr: float, mode: str, **span_attrs) -> dict:
    """Minimize ``outcome_loss(log P, mode) + regularizer`` over ``params``.

    ``step()`` runs the masked forward and returns ``(log P,
    regularizer)``, the regularizer already weighted and chosen for
    ``mode``; it is called once, and its tape replayed for every later
    epoch, so it must compute everything that changes with ``params``
    as ``Tensor`` ops on them. ``span_attrs`` annotate the ``optimize``
    span. Returns the loss record as ``meta`` entries: ``final_loss``,
    ``loss_first``, ``loss_min``, ``loss_last``, ``converged`` and
    ``tape_nodes`` (the nodes each epoch runs, also on the span).
    """
    optimizer = Adam(list(params), lr=lr)
    tape = Tape()
    losses = []
    with span(SPAN_OPTIMIZE, epochs=epochs, **span_attrs) as optimize:
        for epoch in range(epochs):
            with span(SPAN_EPOCH):
                optimizer.zero_grad()
                if epoch == 0:
                    with tape:
                        log_p, regularizer = step()
                        loss = outcome_loss(log_p, mode) + regularizer
                else:
                    tape.replay()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
        if optimize is not None:
            optimize.set(tape_nodes=len(tape))
    # The loss curve in three numbers, and whether it flattened.
    return {"final_loss": losses[-1], "loss_first": losses[0], "loss_min": min(losses),
            "loss_last": losses[-1], "converged": converged(losses),
            "tape_nodes": len(tape)}


def converged(losses: list[float]) -> bool:
    """Whether the loss changed by less than :data:`CONVERGENCE_RTOL`
    (relative) over the last 10% of epochs; ``False`` with too few epochs
    to tell."""
    window = max(1, len(losses) // 10)
    if len(losses) <= window:
        return False
    before, last = losses[-1 - window], losses[-1]
    return abs(last - before) < CONVERGENCE_RTOL * max(abs(before), 1e-12)


def hop_layer_edges(graph: Graph, node: int | None, num_layers: int) -> list[np.ndarray]:
    """Per layer, the sorted layer-edge ids that can reach ``node``.

    Layer ``l`` (0-based) keeps every in-edge and self-loop of the nodes
    within ``num_layers − 1 − l`` hops of ``node``. A graph-level
    explanation (``node=None``) pools every row, so every layer keeps
    every id.
    """
    if node is None:
        return [np.arange(graph.num_edges + graph.num_nodes)] * num_layers
    # Destination of each layer edge: data edges, then one self-loop per node.
    dst = np.concatenate([graph.dst, np.arange(graph.num_nodes)])
    kept = []
    for l in range(num_layers):
        inside = np.zeros(graph.num_nodes, dtype=bool)
        inside[khop_in_nodes(graph, [node], num_layers - 1 - l)] = True
        kept.append(np.flatnonzero(inside[dst]))
    return kept


def forward_layer_edges(kept: list[np.ndarray], width: int) -> dict:
    """``meta["forward_layer_edges"]``: the layer edges each trimmed
    forward ran over, beside the context's ``E + N``."""
    return {**{f"layer_{l + 1}": int(ids.size) for l, ids in enumerate(kept)},
            "context": int(width)}


def forward_layer_rows(trim, num_nodes: int) -> dict:
    """``meta["forward_layer_rows"]``: the node rows each layer of a
    :class:`~repro.nn.LayerTrim` computed, beside the context's ``N``."""
    return forward_layer_edges(trim.rows, num_nodes)
