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
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np

from ..autograd import Tensor, log_softmax
from ..explain.base import Explainer, Explanation, context_key, feature_digest
from ..flows import FlowIndex, cached_enumerate_flows, graph_fingerprint
from ..flows.cache import LRUCache
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN, LayerTrim
from ..obs import PERF
from ..rng import ensure_rng
from .optimize import FlowMaskSettings, optimize_flow_masks

__all__ = ["Revelio", "clear_explanation_cache", "explanation_cache_disabled"]

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
        self.settings = FlowMaskSettings(epochs, lr, alpha, mask_activation,
                                         layer_weight_activation)
        self.max_flows = max_flows

    # ------------------------------------------------------------------
    # public API: the Explainer skeleton behind the memo
    # ------------------------------------------------------------------
    def explain_node(self, graph: Graph, node: int, mode: str = "factual") -> Explanation:
        """Explain the prediction at ``node`` via message-flow masks."""
        context = self.node_context(graph, node)
        key = self._memo_key(lambda: context_key(graph, context), int(node), mode)
        return self._memoized(
            key, lambda: self._explain_in_context(graph, node, context, mode))

    def explain_graph(self, graph: Graph, mode: str = "factual") -> Explanation:
        """Explain a graph-level prediction via message-flow masks."""
        key = self._memo_key(lambda: (graph_fingerprint(graph), feature_digest(graph.x)),
                             None, mode)
        return self._memoized(key, lambda: Explainer.explain_graph(self, graph, mode))

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        flow_index = cached_enumerate_flows(graph, self.model.num_layers, target=target,
                                            max_flows=self.max_flows)
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        tie, meta = self._mask_plan(graph, flow_index, class_idx, target, rng)
        row = target if target is not None else 0
        trim = LayerTrim(flow_index.used_layer_edge_ids())

        def log_prob(layer_masks: list[Tensor]) -> Tensor:
            logits = self.model.forward_graph(graph, edge_masks=layer_masks, trim=trim)
            return log_softmax(logits, axis=-1)[row, class_idx]

        return optimize_flow_masks(self.settings, flow_index, log_prob, mode, rng,
                                   method=self.name, predicted_class=class_idx,
                                   tie=tie, meta=meta, trim=trim)

    def _mask_plan(self, graph: Graph, flow_index: FlowIndex, class_idx: int,
                   target: int | None, rng: np.random.Generator
                   ) -> tuple[tuple[np.ndarray, int] | None, dict]:
        """How flows map to mask parameters, and the meta that says so.

        Returns ``(tie, meta)`` for :func:`optimize_flow_masks`: Revelio
        learns one mask per flow (``tie=None``); subclasses that tie flows
        to shared parameters return the slot map and report it in ``meta``.
        """
        return None, {}

    # ------------------------------------------------------------------
    # result memoization
    # ------------------------------------------------------------------
    def _memo_key(self, instance: Callable[[], tuple[str, str]], target: int | None,
                  mode: str):
        """Complete-input cache key, or ``None`` while the memo is bypassed.

        ``instance()`` returns ``(graph fingerprint, feature digest)`` of
        what the optimize loop reads, and is only called while the memo
        is on: for a node, the full graph's structure (it fixes the
        context, its degrees and the lifted edge positions) and the
        features of the receptive field only
        (:func:`~repro.explain.base.context_key`, hashed once per context
        and shared with the context cache); for a graph, its own structure
        and features. The rest of the key is the frozen model weights, the
        explained instance and every hyperparameter including the seed.
        For a node, no step hashes the full feature matrix, so the key
        costs O(receptive field + E), not O(N·F).
        """
        if not _EXPLANATION_CACHE_ENABLED[0]:
            return None
        h = hashlib.sha1()
        for name, param in sorted(self.model.named_parameters()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(param.data).tobytes())
        return (
            type(self).__qualname__,
            *instance(), h.hexdigest(), target, mode,
            self.model.num_layers, self.settings, self.max_flows, self.seed,
        ) + self._memo_extras()

    def _memo_extras(self) -> tuple:
        """Extra memo-key components contributed by subclasses.

        A subclass that adds hyperparameters its ``_mask_plan`` reads MUST
        extend this (the class name alone only separates subclasses from
        each other, not two differently-configured instances of the same
        subclass).
        """
        return ()

    @staticmethod
    def _memoized(key, explain) -> Explanation:
        """``explain()``, or an independent copy of its memoized result."""
        hit = EXPLANATION_CACHE.get(key) if key is not None else None
        if hit is not None:
            PERF.explanation_cache_hits += 1
            return _copy_explanation(hit)
        explanation = explain()
        if key is not None:
            EXPLANATION_CACHE.put(key, _copy_explanation(explanation))
        return explanation
