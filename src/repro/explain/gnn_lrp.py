"""GNN-LRP (Schnake et al., 2021): per-walk relevance via L-order terms.

GNN-LRP scores each message flow (walk) by the L-th-order term of a Taylor
expansion of the model output with respect to the GNN layers — concretely,
the mixed partial derivative of the explained class score with respect to
the multipliers of the flow's L layer edges, times the product of those
multipliers (which is 1 at the unperturbed point):

    R(flow) = ∂^L f / (∂a¹_{e₁} … ∂a^L_{e_L}) · a¹_{e₁} ⋯ a^L_{e_L}

This reproduction computes the mixed partial exactly (up to O(h²)) with a
central finite-difference stencil over the 2^L sign combinations of the L
layer-edge multipliers, which keeps the method model-agnostic while
preserving both the defining semantics and the ``O(|F|·T_Φ)`` cost profile
that dominates Table V. (The original hand-derives equivalent layer-wise
relevance rules per architecture — the reason it cannot run on GAT, a
restriction we keep.)
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ExplainerError
from ..flows import cached_enumerate_flows
from ..graph import SampledSubgraph
from ..nn.models import GNN, LayerTrim
from ..sparse import kernel, plan_for
from .base import Explainer, Explanation, check_real
from .mask_loop import forward_meta

__all__ = ["GNNLRP"]


class GNNLRP(Explainer):
    """Walk-level relevance decomposition.

    Parameters
    ----------
    step:
        Finite-difference step ``h`` for the mixed partial.
    max_flows:
        Enumeration ceiling; large instances raise rather than thrash.
    """

    name = "gnn_lrp"
    is_flow_based = True

    # Stencil points per batched masked forward.
    BATCH_CHUNK = 256

    def __init__(self, model: GNN, step: float = 0.1, max_flows: int = 200_000,
                 seed: int = 0):
        if model.conv_name == "gat":
            raise ExplainerError("GNN-LRP is not compatible with GAT models (paper §V-A)")
        check_real("step", step, 0, strict=True)
        super().__init__(model, seed=seed)
        self.step = step
        self.max_flows = max_flows

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        flow_index = cached_enumerate_flows(graph, self.model.num_layers, target=target,
                                            max_flows=self.max_flows)
        class_idx = self.predicted_class(graph, target=target)
        num_layers = flow_index.num_layers
        width = flow_index.num_layer_edges
        h = self.step
        denom = (2.0 * h) ** num_layers
        sign_combos = list(itertools.product((-1.0, 1.0), repeat=num_layers))

        # Flows sharing the same (layer, edge) multiset hit identical mask
        # configurations: collect the unique stencil points in deterministic
        # order, then evaluate them in chunked batched forwards.
        positions: dict[tuple, int] = {}
        order: list[tuple[np.ndarray, tuple]] = []
        for f in range(flow_index.num_flows):
            path = flow_index.layer_edges[f]
            for signs in sign_combos:
                key = tuple(zip(range(num_layers), path.tolist(), signs))
                if key not in positions:
                    positions[key] = len(order)
                    order.append((path, signs))

        def stencil_masks(path: np.ndarray, signs: tuple) -> np.ndarray:
            masks = np.ones((num_layers, width))
            masks[np.arange(num_layers), path] += np.asarray(signs) * h
            return masks

        # Masks are built one chunk at a time, so peak memory stays at
        # BATCH_CHUNK stencils however many flows there are. A stencil only
        # scales messages, so a node target's forwards run flow-trimmed.
        values = np.empty(len(order))
        row = target if target is not None else 0
        trim = LayerTrim(flow_index.used_layer_edge_ids()) if target is not None else None
        for start in range(0, len(order), self.BATCH_CHUNK):
            stack = np.stack([stencil_masks(p, s)
                              for p, s in order[start:start + self.BATCH_CHUNK]])
            logits = self.model.forward_masked_batch(graph, stack, trim=trim)
            values[start:start + self.BATCH_CHUNK] = logits[:, row, class_idx]

        scores = np.zeros(flow_index.num_flows)
        for f in range(flow_index.num_flows):
            path = flow_index.layer_edges[f]
            total = 0.0
            for signs in sign_combos:
                key = tuple(zip(range(num_layers), path.tolist(), signs))
                total += float(np.prod(signs)) * float(values[positions[key]])
            scores[f] = total / denom

        # Edge transfer: signed relevance summed over all flows through the
        # edge at any layer (decomposition semantics: relevances add up).
        # One plan-backed scatter over the full augmented id space [0, E+N)
        # — flow f contributes its score once per layer — then the data-edge
        # prefix is the per-edge relevance (self-loop ids fall off the end).
        flat_ids = np.ascontiguousarray(flow_index.layer_edges.reshape(-1))
        tiled = np.repeat(scores, num_layers)
        plan = plan_for(flat_ids, width)
        aug_scores = kernel("scatter_add")(plan, tiled[:, None])
        edge_scores = np.ascontiguousarray(aug_scores[:flow_index.num_edges, 0])

        return Explanation(
            edge_scores=edge_scores,
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            flow_scores=scores,
            flow_index=flow_index,
            meta={"params": {"step": h}, "num_flows": flow_index.num_flows,
                  "perf": {"stencil_evals": len(order)},
                  **forward_meta(trim, num_layers, width, flow_index.num_nodes)},
        )
