"""The Revelio family's caller of the mask-learning loop (paper §IV, Eqs. 1–9).

:class:`Revelio`, :class:`TopKRevelio` and :class:`LinkRevelio` differ only
in what they explain (a node or graph class, a link) and in how flow masks
map to parameters (one per flow, or tied to ``k + 1`` slots). Everything
else — the Eq. 4/5 flow→edge transform, the Eq. 8/9 regularizer, the
counterfactual flip and the edge transfer — is :func:`optimize_flow_masks`,
which runs them on the one loop every mask learner shares
(:func:`repro.explain.mask_loop.learn_masks`: Adam, the Eq. 1/2 objective,
the optimize/epoch spans and the loss ``meta``). Callers pass the instance
as a closure from per-layer edge masks to ``log P(explained outcome)``.

The loop is flow-trimmed: layer ``l``'s masked forward runs over only the
layer edges a flow crosses there (``FlowIndex.used_layer_edge_ids``), the
in-edges of every node within ``L − l`` hops of the explained endpoints.
The transform and the regularizer stay full width ``(L, E+N)``; each layer
gathers its kept entries before the forward. A reached row sums the same
messages in the same order, and an unreached row fed only layer edges the
outcome's gradient never reaches, so the trim is bit-exact. The callers'
closures run the forward through one :class:`~repro.nn.LayerTrim` per
explanation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..errors import ExplainerError
from ..explain.base import Explanation, check_int, check_real
from ..explain.flow_common import layer_scores_to_edge_scores
from ..explain.mask_loop import forward_layer_edges, learn_masks
from ..flows import FlowIndex

__all__ = ["FlowMaskSettings", "optimize_flow_masks",
           "MASK_ACTIVATIONS", "LAYER_WEIGHT_ACTIVATIONS"]

# Ablation knobs discussed in §IV-B of the paper.
MASK_ACTIVATIONS = ("tanh", "sigmoid")
LAYER_WEIGHT_ACTIVATIONS = ("exp", "softplus", "identity")

@dataclass(frozen=True)
class FlowMaskSettings:
    """Validated hyperparameters of the flow-mask loop.

    Built once per explainer, so a bad value (``epochs=0``, a NaN ``lr``)
    fails at construction with an :class:`ExplainerError` — a per-request
    400 on the serve path — instead of deep inside the loop.
    """

    epochs: int
    lr: float
    alpha: float
    mask_activation: str = "tanh"
    layer_weight_activation: str = "exp"

    def __post_init__(self):
        if self.mask_activation not in MASK_ACTIVATIONS:
            raise ExplainerError(f"mask_activation must be one of {MASK_ACTIVATIONS}")
        if self.layer_weight_activation not in LAYER_WEIGHT_ACTIVATIONS:
            raise ExplainerError(
                f"layer_weight_activation must be one of {LAYER_WEIGHT_ACTIVATIONS}")
        check_int("epochs", self.epochs, 1)
        check_real("lr", self.lr, 0, strict=True)
        check_real("alpha", self.alpha, 0)

    def params(self) -> dict:
        """The ``meta["params"]`` entries every flow-mask explanation reports."""
        return {"epochs": self.epochs, "lr": self.lr, "alpha": self.alpha}

    def flow_scores(self, masks: Tensor) -> Tensor:
        """Eq. (4): bounded flow scores from raw masks."""
        if self.mask_activation == "tanh":
            return masks.tanh()
        return masks.sigmoid()

    def layer_scale(self, w: Tensor) -> Tensor:
        """Positive per-layer scale from the weight vector (choice of §IV-B)."""
        if self.layer_weight_activation == "exp":
            return w.exp()
        if self.layer_weight_activation == "softplus":
            return w.softplus()
        return w  # identity (ablation; may go negative, as the paper warns)

    def layer_edge_scores(self, masks: Tensor, w: Tensor, flow_index: FlowIndex) -> Tensor:
        """Eqs. (3)/(5)/(7): transform flow masks into layer-edge masks."""
        accumulated = flow_index.aggregate_scores(self.flow_scores(masks))  # (L, E+N)
        scaled = accumulated * self.layer_scale(w).reshape(-1, 1)           # exp(w_l) per layer
        return scaled.sigmoid()


def optimize_flow_masks(settings: FlowMaskSettings, flow_index: FlowIndex,
                        log_prob: Callable[[list[Tensor]], Tensor],
                        mode: str,
                        rng: np.random.Generator, *, method: str, predicted_class: int,
                        tie: tuple[np.ndarray, int] | None = None,
                        meta: dict | None = None) -> Explanation:
    """Learn flow masks for one instance; return its context-local explanation.

    Parameters
    ----------
    log_prob:
        ``log_prob(layer_masks)`` maps the ``L`` per-layer edge masks to
        the scalar ``log P`` of the outcome being explained (a class at a
        node or graph, a link). ``layer_masks[l]`` holds one mask per id
        of ``flow_index.used_layer_edge_ids()[l]``: pass them on as
        ``forward_graph``'s (or ``link_logits``') ``edge_masks`` with
        ``trim=LayerTrim(flow_index.used_layer_edge_ids())``, built once
        per explanation.
    mode:
        ``"factual"`` minimizes Eq. (1) + α·Eq. (8); ``"counterfactual"``
        minimizes Eq. (2) + α·Eq. (9) and flips the final scores
        (``ω' = −ω`` per flow, ``1 − ω`` per layer edge) so that higher
        always means more important.
    rng:
        Draws the initial masks ``N(0, 0.1)``.
    method, predicted_class:
        Recorded on the returned :class:`Explanation`.
    tie:
        ``(slot, num_slots)``: flow ``i`` reads mask parameter ``slot[i]``
        of ``num_slots`` (TopK's preselection). ``None``: one mask per flow.
    meta:
        Extra ``meta`` entries; a ``"params"`` entry replaces
        ``settings.params()``.
    """
    if flow_index.num_flows == 0:
        raise ExplainerError("instance has no message flows to explain")
    used = flow_index.used_layer_edges()
    kept = flow_index.used_layer_edge_ids()
    used_tensor = Tensor(used.astype(np.float64))
    num_used = float(used.sum())
    slot, num_slots = tie if tie is not None else (None, flow_index.num_flows)

    params = Tensor(rng.normal(0.0, 0.1, size=num_slots), requires_grad=True)
    w = Tensor(np.zeros(flow_index.num_layers), requires_grad=True)

    def flow_masks() -> Tensor:
        return params if slot is None else params.gather_rows(slot)

    def step() -> tuple[Tensor, Tensor]:
        omega_e = settings.layer_edge_scores(flow_masks(), w, flow_index)
        log_p = log_prob([omega_e[l, ids] for l, ids in enumerate(kept)])
        if mode == "factual":
            regularizer = (omega_e * used_tensor).sum() / num_used          # Eq. (8)
        else:
            regularizer = ((1.0 - omega_e) * used_tensor).sum() / num_used  # Eq. (9)
        return log_p, settings.alpha * regularizer

    loss_meta = learn_masks([params, w], step, epochs=settings.epochs, lr=settings.lr,
                            mode=mode, num_flows=flow_index.num_flows)

    # Final scores (no gradient needed).
    masks = flow_masks()
    omega_f = settings.flow_scores(masks).numpy().copy()
    omega_e = settings.layer_edge_scores(masks, w, flow_index).numpy().copy()
    if mode == "counterfactual":
        omega_f = -omega_f
        omega_e = 1.0 - omega_e
    return Explanation(
        edge_scores=layer_scores_to_edge_scores(omega_e, flow_index),
        predicted_class=predicted_class,
        method=method,
        mode=mode,
        layer_edge_scores=omega_e,
        flow_scores=omega_f,
        flow_index=flow_index,
        meta={**loss_meta, "params": settings.params(),
              "layer_weights": w.numpy().copy(),
              "num_flows": flow_index.num_flows,
              # Fig. 5's sparsity quantities, on the reported scores.
              "flows_above_half": float((omega_f > 0.5).mean()),
              "mean_edge_mask": float(omega_e[used].mean()),
              "forward_layer_edges": forward_layer_edges(kept, flow_index.num_layer_edges),
              **(meta or {})},
    )

