"""The one mask-learning loop (paper Eqs. 1/2) and the layer trim it runs on.

Every mask learner — Revelio, TopKRevelio, LinkRevelio, GNNExplainer,
FlowX's stage 2 and the group learners PGExplainer and GraphMask — differs
in how its trainable tensors become per-layer edge masks and in its
regularizer, and shares the rest. :func:`learn_masks` is that shared
part: Adam over the trainable tensors, the ``optimize``/``epoch`` spans,
the loss record and the convergence ``meta``. A caller passes one closure
that runs its masked forwards and returns its loss (:func:`outcome_loss`
plus its regularizer; a group learner's sums its instances). The loop
calls it once: epoch 1 records its tape (:class:`~repro.autograd.Tape`)
and compiles the backward pass from its loss into one static plan; epochs
2..T replay the tape on the updated parameters and run that plan — the
same numpy calls in the same order, so each epoch is bit-exact with
rebuilding it. Work on frozen inputs (a frozen layer 1's pre-mask
messages, embeddings) is off the tape and done once; per-epoch noise and
temperatures are frozen leaves a ``refresh`` hook sets before each epoch.

:func:`hop_layer_edges` is the layer trim of a node-level mask learner
whose masks only scale messages (Eq. 6): layer ``l`` of an ``L``-layer
model reaches the target only through the in-edges of nodes within
``L − 1 − l`` hops of it, so a :class:`~repro.nn.LayerTrim` of those ids
computes the target row bit for bit. It reads the hop distances the
context's extraction recorded, so no second search runs. They are
exactly the layer edges a flow ending at the target crosses
(``FlowIndex.used_layer_edge_ids``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..autograd import Adam, Tape, Tensor, log_softmax
from ..graph import SampledSubgraph
from ..obs import span
from ..obs.names import SPAN_EPOCH, SPAN_OPTIMIZE, SPAN_REPLAY

__all__ = ["learn_masks", "outcome_loss", "target_log_prob", "mean_or_zero",
           "hop_layer_edges", "forward_meta"]

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


def target_log_prob(logits: Tensor, row: int, class_idx: int) -> Tensor:
    """``log_softmax(logits)[row, class_idx]``, the ``log P`` of Eqs. 1/2.

    The log-softmax runs over the target's row alone, sliced after the
    head's product: it is row-wise, so the value and the logits' gradient
    have the bits of the full-width form, without its per-epoch work on
    every other row.
    """
    return log_softmax(logits[row], axis=-1)[class_idx]


def mean_or_zero(values: Tensor) -> Tensor | float:
    """``values.mean()``, or ``0.0`` when there are no values.

    A mask over the edges of an isolated target's context is empty, and
    its mean would be ``0/0``: a NaN loss. Its shape is static, so the
    choice is made once, when the term is built (or recorded).
    """
    return values.mean() if values.size else 0.0


def learn_masks(params: Sequence[Tensor], step: Callable[[], Tensor], *, epochs: int,
                lr: float, refresh: Callable[[int], None] | None = None,
                **span_attrs) -> dict:
    """Minimize the loss ``step()`` returns over ``params``.

    ``step()`` is called once, and its tape replayed for every later
    epoch, so it must compute everything that changes with ``params`` as
    ``Tensor`` ops on them. ``refresh(epoch)`` runs before each epoch and
    sets the ``.data`` of frozen leaves that change per epoch. ``span_attrs``
    annotate the ``optimize`` span. Returns the loss record as ``meta``
    entries: ``final_loss``, ``loss_first``, ``loss_min``, ``loss_last``,
    ``converged``, ``tape_nodes`` (the nodes each epoch replays) and
    ``plan_nodes`` (the steps of the backward plan compiled from them),
    both also on the span.
    """
    optimizer = Adam(list(params), lr=lr)
    tape = Tape()
    losses = []
    with span(SPAN_OPTIMIZE, epochs=epochs, **span_attrs) as optimize:
        for epoch in range(epochs):
            with span(SPAN_EPOCH):
                optimizer.zero_grad()
                if refresh is not None:
                    refresh(epoch)
                if epoch == 0:
                    with tape:
                        loss = step()
                    plan_nodes = len(tape.compile(loss, optimizer.params))
                else:
                    with span(SPAN_REPLAY):
                        tape.replay()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
        if optimize is not None:
            optimize.set(tape_nodes=len(tape), plan_nodes=plan_nodes)
    # The loss curve in three numbers, and whether it flattened.
    return {"final_loss": losses[-1], "loss_first": losses[0], "loss_min": min(losses),
            "loss_last": losses[-1], "converged": converged(losses),
            "tape_nodes": len(tape), "plan_nodes": plan_nodes}


def converged(losses: list[float]) -> bool:
    """Whether the loss changed by less than :data:`CONVERGENCE_RTOL`
    (relative) over the last 10% of epochs; ``False`` with too few epochs
    to tell."""
    window = max(1, len(losses) // 10)
    if len(losses) <= window:
        return False
    before, last = losses[-1 - window], losses[-1]
    return abs(last - before) < CONVERGENCE_RTOL * max(abs(before), 1e-12)


def hop_layer_edges(context: SampledSubgraph, num_layers: int) -> list[np.ndarray]:
    """Per layer, the sorted ids of ``context.subgraph``'s layer edges that
    can reach the target.

    Layer ``l`` (0-based) keeps every in-edge and self-loop of the nodes
    within ``num_layers − 1 − l`` hops of the target, read off the
    context's recorded hop distances. A whole-graph context (a
    graph-level readout pools every row) keeps every id in every layer.
    """
    graph = context.subgraph
    # Hop of each layer edge's destination: data edges, then one self-loop per node.
    hops = np.concatenate([context.hops[graph.dst], context.hops])
    return [np.flatnonzero(hops <= num_layers - 1 - l) for l in range(num_layers)]


def forward_meta(trim, num_layers: int, width: int, num_nodes: int) -> dict:
    """``meta["forward_layer_edges"]`` and ``meta["forward_layer_rows"]``:
    the layer edges (beside the context's ``E + N``) and node rows (beside
    its ``N``) each layer of a forward run through ``trim``, a
    :class:`~repro.nn.LayerTrim`, computed (``None``: untrimmed, every
    layer edge and row of the context)."""
    def per_layer(counts, total: int) -> dict:
        return {**{f"layer_{l + 1}": int(c) for l, c in enumerate(counts)},
                "context": int(total)}

    if trim is None:
        return {"forward_layer_edges": per_layer([width] * num_layers, width),
                "forward_layer_rows": per_layer([num_nodes] * num_layers, num_nodes)}
    return {"forward_layer_edges": per_layer([ids.size for ids in trim.layer_edges], width),
            "forward_layer_rows": per_layer([rows.size for rows in trim.rows], num_nodes)}
