"""REVELIO: learning-based message-flow explanation (paper §IV).

The method in one page
----------------------
Given a pretrained GNN Φ, an input graph and the class ``c`` to explain,
Revelio learns one mask per message flow:

1. **Flow masks** ``M ∈ R^{|F|}`` are free parameters, mapped to bounded
   importance scores ``ω[F] = tanh(M)`` (Eq. 4). tanh (not sigmoid) lets
   scores go negative, so layer edges that merely carry *many* flows do not
   automatically accumulate large masks.
2. **Mask transformation** (Eqs. 3/5): each flow's score is added onto the
   L layer edges of its path; per-layer learnable weights ``w ∈ R^L`` pass
   through ``exp`` (positive, low gradient on (0,1), high above 1) and
   rescale the accumulated sums, which are squashed by a sigmoid:
   ``ω[e^l] = σ(Σ_{F through e at l} ω[F] · exp(w_l))``.
3. **Masked forward** (Eq. 6): the layer-edge scores multiply messages in
   the corresponding GNN layer.
4. **Objective**: factual ``-log P(Y=c | G, F̂)`` (Eq. 1) or counterfactual
   ``-log(1 − P(Y=c | G, F̂))`` (Eq. 2), plus the sparsity regularizer
   ``α·mean(ω[E])`` (Eq. 8) — or ``α·mean(1−ω[E])`` for counterfactual
   (Eq. 9) — averaged over layer edges actually used by flows.
5. After ``T`` epochs of Adam, the flow scores are ``tanh(M)``; for
   counterfactual explanations the final scores are negated
   (``ω' = −ω``), and layer-edge scores become ``1 − ω[e]``, so in both
   modes higher values mean more important.

Because each flow's mask reaches the model through *all* of its layer
edges, down-weighting one flow suppresses exactly that flow's contribution
multiplicatively (L times), which is what disentangles flows sharing edges.
"""

from __future__ import annotations

import copy
import hashlib
from contextlib import contextmanager

import numpy as np

from ..autograd import Adam, Tensor, log_softmax
from ..errors import ExplainerError
from ..explain.base import Explainer, Explanation, feature_digest
from ..flows import FlowIndex, cached_enumerate_flows, graph_fingerprint
from ..flows.cache import LRUCache
from ..graph import Graph
from ..nn.models import GNN
from ..obs import PERF, span
from ..obs.names import SPAN_EPOCH, SPAN_OPTIMIZE
from ..rng import ensure_rng

__all__ = ["Revelio", "MASK_ACTIVATIONS", "LAYER_WEIGHT_ACTIVATIONS",
           "clear_explanation_cache", "explanation_cache_disabled"]

# Ablation knobs discussed in §IV-B of the paper.
MASK_ACTIVATIONS = ("tanh", "sigmoid")
LAYER_WEIGHT_ACTIVATIONS = ("exp", "softplus", "identity")

#: Whole-result memo for Revelio explanations. An explanation is a pure
#: function of (graph structure, features, frozen model weights, target,
#: mode, hyperparameters, seed) — mask initialization and Adam are both
#: seeded — so a repeat request can skip the optimize loop entirely, which
#: profiling shows is >90% of ``explain_node`` even with the flow and
#: context caches warm. Cache hits return an independent copy; entries can
#: never go stale because every input is part of the key.
EXPLANATION_CACHE = LRUCache(maxsize=128)
_EXPLANATION_CACHE_ENABLED = [True]


def clear_explanation_cache() -> None:
    """Explicitly drop every memoized Revelio explanation."""
    EXPLANATION_CACHE.clear()


@contextmanager
def explanation_cache_disabled():
    """Temporarily bypass the explanation memo (cold-path benchmarks)."""
    prev = _EXPLANATION_CACHE_ENABLED[0]
    _EXPLANATION_CACHE_ENABLED[0] = False
    try:
        yield
    finally:
        _EXPLANATION_CACHE_ENABLED[0] = prev


def _copy_explanation(e: Explanation) -> Explanation:
    """Independent copy of a memoized explanation.

    Arrays are copied and ``meta`` deep-copied (``Explainer.explain``
    writes ``trace_id`` / ``perf`` into it per call); the
    :class:`FlowIndex` is shared — it is immutable by library convention
    and already shared through :data:`repro.flows.FLOW_CACHE`.
    """
    return Explanation(
        edge_scores=e.edge_scores.copy(),
        predicted_class=e.predicted_class,
        method=e.method,
        mode=e.mode,
        target=e.target,
        layer_edge_scores=None if e.layer_edge_scores is None else e.layer_edge_scores.copy(),
        flow_scores=None if e.flow_scores is None else e.flow_scores.copy(),
        flow_index=e.flow_index,
        context_node_ids=None if e.context_node_ids is None else e.context_node_ids.copy(),
        context_edge_positions=(None if e.context_edge_positions is None
                                else e.context_edge_positions.copy()),
        meta=copy.deepcopy(e.meta),
    )


class Revelio(Explainer):
    """The paper's method.

    Parameters
    ----------
    model:
        Pretrained target :class:`GNN` (frozen by the base class).
    epochs:
        Mask-learning epochs ``T`` (paper: 500).
    lr:
        Adam learning rate (paper: 1e-2).
    alpha:
        Sparsity-regularizer strength (paper: tuned per dataset; Fig. 5).
    mask_activation:
        ``"tanh"`` (paper) or ``"sigmoid"`` (ablation A2).
    layer_weight_activation:
        ``"exp"`` (paper), ``"softplus"`` or ``"identity"`` (ablation A1).
    max_flows:
        Enumeration safety ceiling.
    seed:
        Mask-initialization seed.
    """

    name = "revelio"
    is_flow_based = True
    supports_counterfactual = True

    def __init__(self, model: GNN, epochs: int = 500, lr: float = 1e-2,
                 alpha: float = 0.05, mask_activation: str = "tanh",
                 layer_weight_activation: str = "exp",
                 max_flows: int = 2_000_000, seed: int = 0):
        super().__init__(model, seed=seed)
        if mask_activation not in MASK_ACTIVATIONS:
            raise ExplainerError(f"mask_activation must be one of {MASK_ACTIVATIONS}")
        if layer_weight_activation not in LAYER_WEIGHT_ACTIVATIONS:
            raise ExplainerError(
                f"layer_weight_activation must be one of {LAYER_WEIGHT_ACTIVATIONS}"
            )
        self.epochs = epochs
        self.lr = lr
        self.alpha = alpha
        self.mask_activation = mask_activation
        self.layer_weight_activation = layer_weight_activation
        self.max_flows = max_flows

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def explain_node(self, graph: Graph, node: int, mode: str = "factual") -> Explanation:
        """Explain the prediction at ``node`` via message-flow masks."""
        context = self.node_context(graph, node)
        key = self._memo_key((context.graph_fingerprint, context.feature_digest),
                             int(node), mode)
        hit = EXPLANATION_CACHE.get(key) if key is not None else None
        if hit is not None:
            PERF.explanation_cache_hits += 1
            return _copy_explanation(hit)
        flow_index = cached_enumerate_flows(context.subgraph, self.model.num_layers,
                                            target=context.local_target,
                                            max_flows=self.max_flows)
        explanation = self._optimize(context.subgraph, flow_index, mode,
                                     target=context.local_target)
        explanation.target = node
        explanation.context_node_ids = context.node_ids
        explanation.context_edge_positions = context.edge_positions
        explanation.edge_scores = self.lift_edge_scores(
            context, explanation.edge_scores, graph.num_edges
        )
        if key is not None:
            EXPLANATION_CACHE.put(key, _copy_explanation(explanation))
        return explanation

    def explain_graph(self, graph: Graph, mode: str = "factual") -> Explanation:
        """Explain a graph-level prediction via message-flow masks."""
        key = self._memo_key((graph_fingerprint(graph), feature_digest(graph.x)),
                             None, mode)
        hit = EXPLANATION_CACHE.get(key) if key is not None else None
        if hit is not None:
            PERF.explanation_cache_hits += 1
            return _copy_explanation(hit)
        flow_index = cached_enumerate_flows(graph, self.model.num_layers,
                                            max_flows=self.max_flows)
        explanation = self._optimize(graph, flow_index, mode, target=None)
        if key is not None:
            EXPLANATION_CACHE.put(key, _copy_explanation(explanation))
        return explanation

    # ------------------------------------------------------------------
    # result memoization
    # ------------------------------------------------------------------
    def _memo_key(self, instance: tuple[str, str], target: int | None, mode: str):
        """Complete-input cache key, or ``None`` while the memo is bypassed.

        ``instance`` is ``(graph fingerprint, feature digest)`` of what the
        optimize loop reads: for a node, the full graph's structure (it
        fixes the context, its degrees and the lifted edge positions) and
        the features of the receptive field only, as carried by the
        :class:`~repro.explain.base.NodeContext`; for a graph, its own
        structure and features. The rest of the key is the frozen model
        weights, the explained instance and every hyperparameter including
        the seed. For a node, no step hashes the full feature matrix, so
        the key costs O(receptive field + E), not O(N·F).
        """
        if not _EXPLANATION_CACHE_ENABLED[0]:
            return None
        h = hashlib.sha1()
        for name, param in sorted(self.model.named_parameters()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(param.data).tobytes())
        return (
            type(self).__qualname__,
            *instance, h.hexdigest(), target, mode,
            self.model.num_layers, self.epochs, self.lr, self.alpha,
            self.mask_activation, self.layer_weight_activation,
            self.max_flows, self.seed,
        ) + self._memo_extras()

    def _memo_extras(self) -> tuple:
        """Extra memo-key components contributed by subclasses.

        A subclass that adds hyperparameters its ``_optimize`` reads MUST
        extend this (the class name alone only separates subclasses from
        each other, not two differently-configured instances of the same
        subclass).
        """
        return ()

    # ------------------------------------------------------------------
    # the learning loop
    # ------------------------------------------------------------------
    def _flow_scores(self, masks: Tensor) -> Tensor:
        """Eq. (4): bounded flow scores from raw masks."""
        if self.mask_activation == "tanh":
            return masks.tanh()
        return masks.sigmoid()

    def _layer_scale(self, w: Tensor) -> Tensor:
        """Positive per-layer scale from the weight vector (choice of §IV-B)."""
        if self.layer_weight_activation == "exp":
            return w.exp()
        if self.layer_weight_activation == "softplus":
            return w.softplus()
        return w  # identity (ablation; may go negative, as the paper warns)

    def _layer_edge_scores(self, masks: Tensor, w: Tensor, flow_index: FlowIndex) -> Tensor:
        """Eqs. (3)/(5)/(7): transform flow masks into layer-edge masks."""
        omega_f = self._flow_scores(masks)
        accumulated = flow_index.aggregate_scores(omega_f)          # (L, E+N)
        scaled = accumulated * self._layer_scale(w).reshape(-1, 1)  # exp(w_l) per layer
        return scaled.sigmoid()

    def _optimize(self, graph: Graph, flow_index: FlowIndex, mode: str,
                  target: int | None) -> Explanation:
        rng = ensure_rng(self.seed)
        if flow_index.num_flows == 0:
            raise ExplainerError("instance has no message flows to explain")

        class_idx = self.predicted_class(graph, target=target)
        used = flow_index.used_layer_edges()
        used_tensor = Tensor(used.astype(np.float64))
        num_used = float(used.sum())

        masks = Tensor(rng.normal(0.0, 0.1, size=flow_index.num_flows), requires_grad=True)
        w = Tensor(np.zeros(flow_index.num_layers), requires_grad=True)
        optimizer = Adam([masks, w], lr=self.lr)

        row = target if target is not None else 0
        losses = []
        with span(SPAN_OPTIMIZE, epochs=self.epochs,
                  num_flows=flow_index.num_flows):
            for _ in range(self.epochs):
                with span(SPAN_EPOCH):
                    optimizer.zero_grad()
                    omega_e = self._layer_edge_scores(masks, w, flow_index)
                    layer_masks = [omega_e[l] for l in range(flow_index.num_layers)]
                    logits = self.model.forward_graph(graph, edge_masks=layer_masks)
                    log_probs = log_softmax(logits, axis=-1)
                    log_p = log_probs[row, class_idx]

                    if mode == "factual":
                        objective = -log_p                                    # Eq. (1)
                        regularizer = (omega_e * used_tensor).sum() / num_used  # Eq. (8)
                    else:
                        # Eq. (2): BCE against target 0 for the explained class.
                        p = log_p.exp()
                        objective = -(1.0 - p.clip(0.0, 1.0 - 1e-12)).log()
                        regularizer = ((1.0 - omega_e) * used_tensor).sum() / num_used  # Eq. (9)

                    loss = objective + self.alpha * regularizer
                    loss.backward()
                    optimizer.step()
                    losses.append(loss.item())

        # Final scores (no gradient needed).
        omega_f = self._flow_scores(masks).numpy().copy()
        omega_e = self._layer_edge_scores(masks, w, flow_index).numpy().copy()
        if mode == "counterfactual":
            # ω'[F] = −ω[F]; ω'[e] = 1 − ω[e]: higher still means more
            # important, now "important to remove".
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
                "params": {"epochs": self.epochs, "lr": self.lr,
                           "alpha": self.alpha},
                "layer_weights": w.numpy().copy(),
                "num_flows": flow_index.num_flows,
            },
        )

    @staticmethod
    def _edges_from_layers(omega_e: np.ndarray, used: np.ndarray,
                           flow_index: FlowIndex) -> np.ndarray:
        """Whole-GNN data-edge scores: average over layers using the edge.

        The paper transfers flow scores "into the importance scores for
        edges within individual GNN layers or across the entire GNN"; the
        across-GNN transfer averages each edge's per-layer scores over the
        layers where it actually carries flows.
        """
        num_edges = flow_index.num_edges
        scores = omega_e[:, :num_edges]
        mask = used[:, :num_edges]
        counts = np.maximum(mask.sum(axis=0), 1)
        return (scores * mask).sum(axis=0) / counts
