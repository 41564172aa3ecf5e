"""FlowX (Gui et al., 2023): Shapley-initialized flow explanations.

Two stages, following the paper's description (§II of the Revelio paper):

1. **Marginal-contribution sampling.** Over ``samples`` random coalitions
   of layer edges, each evaluated layer edge is toggled off and the
   prediction difference is split evenly among the message flows the
   removal silences ("removing the edge that carries it and then dividing
   the resulting prediction difference by the number of removed message
   flows"). This yields Shapley-style per-flow initial scores — the reason
   FlowX's reported flow values are tiny (Table VI).
2. **Learning refinement.** The flow scores seed learnable flow masks which
   are fine-tuned with the same masked-forward objective (Eq. 1 / Eq. 2),
   loop (``learn_masks``) and flow trim that Revelio uses.

Cost profile: stage 1 is ``O(S · L · |E| · T_Φ)`` forwards — the dominant
term of Table II — so FlowX remains much slower than Revelio on dense
instances even at modest ``samples``.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..flows import FlowIndex, cached_enumerate_flows
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN, LayerTrim
from ..rng import ensure_rng
from .base import Explainer, Explanation, check_int, check_real
from .flow_common import flow_scores_to_edge_scores, masked_probability_batch
from .mask_loop import forward_meta, learn_masks, outcome_loss, target_log_prob

__all__ = ["FlowX"]


class FlowX(Explainer):
    """Shapley-sampling + learning flow explainer.

    Parameters
    ----------
    samples:
        Coalition samples ``S`` for marginal-contribution estimation.
    edges_per_sample:
        Layer edges evaluated per coalition (``None`` = all used edges;
        bounding this trades accuracy for speed, mirroring the GPU
        batch-size knob of the original implementation).
    finetune_epochs, lr:
        Stage-2 schedule (``finetune_epochs=0`` reports the stage-1
        scores unrefined).
    """

    name = "flowx"
    is_flow_based = True
    supports_counterfactual = True

    # Rows per batched masked forward; bounds the (B, N, F) intermediates.
    # 128 keeps the per-chunk working set inside L2/L3 — larger chunks
    # thrash the cache and measure slower despite fewer dispatches.
    BATCH_CHUNK = 128

    def __init__(self, model: GNN, samples: int = 10, edges_per_sample: int | None = None,
                 finetune_epochs: int = 100, lr: float = 1e-2,
                 max_flows: int = 2_000_000, seed: int = 0):
        check_int("samples", samples, 1)
        if edges_per_sample is not None:
            check_int("edges_per_sample", edges_per_sample, 1)
        check_int("finetune_epochs", finetune_epochs, 0)
        check_real("lr", lr, 0, strict=True)
        super().__init__(model, seed=seed)
        self.samples = samples
        self.edges_per_sample = edges_per_sample
        self.finetune_epochs = finetune_epochs
        self.lr = lr
        self.max_flows = max_flows

    # ------------------------------------------------------------------
    # stage 1: sampled marginal contributions
    # ------------------------------------------------------------------
    def _shapley_flow_scores(self, graph: Graph, flow_index: FlowIndex,
                             class_idx: int, target: int | None,
                             rng: np.random.Generator,
                             trim: LayerTrim | None = None) -> np.ndarray:
        """Per-flow Shapley estimates; ``trim`` (a node target's flow trim)
        runs each coalition over only the layer edges that reach it."""
        num_layers = flow_index.num_layers
        width = flow_index.num_layer_edges
        used = flow_index.used_layer_edges()
        used_pairs = np.argwhere(used)  # (n_used, 2): (layer, edge)

        contributions = np.zeros(flow_index.num_flows)
        counts = np.zeros(flow_index.num_flows)
        flows_per_edge = flow_index.flows_per_layer_edge()

        # One row per sampled coalition plus one per eligible toggled edge,
        # all evaluated through the masked-forward engine.
        rows: list[np.ndarray] = []
        row_meta: list[tuple[int, tuple[int, int] | None]] = []
        for s in range(self.samples):
            keep_prob = rng.uniform(0.3, 0.95)
            coalition = (rng.random((num_layers, width)) < keep_prob).astype(np.float64)
            coalition[~used] = 1.0  # unused edges are irrelevant; keep masks clean
            if self.edges_per_sample is not None and used_pairs.shape[0] > self.edges_per_sample:
                picks = used_pairs[rng.choice(used_pairs.shape[0], self.edges_per_sample,
                                              replace=False)]
            else:
                picks = used_pairs
            rows.append(coalition)
            row_meta.append((s, None))
            for layer, edge in picks:
                if coalition[layer, edge] == 0.0 or flows_per_edge[layer, edge] == 0:
                    continue
                toggled = coalition.copy()
                toggled[layer, edge] = 0.0
                rows.append(toggled)
                row_meta.append((s, (int(layer), int(edge))))

        probs = np.empty(len(rows))
        for start in range(0, len(rows), self.BATCH_CHUNK):
            stack = np.stack(rows[start:start + self.BATCH_CHUNK])
            probs[start:start + self.BATCH_CHUNK] = masked_probability_batch(
                self.model, graph, stack, class_idx, target, trim=trim
            )

        p_base = {s: probs[i] for i, (s, pick) in enumerate(row_meta) if pick is None}
        for (s, pick), p_without in zip(row_meta, probs):
            if pick is None:
                continue
            layer, edge = pick
            delta = (p_base[s] - p_without) / flows_per_edge[layer, edge]
            members = flow_index.flows_through(layer + 1, edge)
            contributions[members] += delta
            counts[members] += 1.0
        return contributions / np.maximum(counts, 1.0)

    # ------------------------------------------------------------------
    # stage 2: learning refinement
    # ------------------------------------------------------------------
    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        flow_index = cached_enumerate_flows(graph, self.model.num_layers, target=target,
                                            max_flows=self.max_flows)
        rng = ensure_rng(self.seed)
        class_idx = self.predicted_class(graph, target=target)
        # Coalitions only scale messages, so a node target's stage 1 runs
        # flow-trimmed, as stage 2 does; a graph readout pools every row.
        trim = LayerTrim(flow_index.used_layer_edge_ids()) if target is not None else None

        shapley = self._shapley_flow_scores(graph, flow_index, class_idx, target, rng,
                                            trim=trim)
        # Seed learnable masks: scale raw contributions into tanh's active
        # region so fine-tuning starts from the Shapley ranking.
        scale = np.abs(shapley).max()
        init = np.arctanh(np.clip(shapley / scale, -0.99, 0.99)) if scale > 0 else \
            rng.normal(0.0, 0.1, size=flow_index.num_flows)
        masks = Tensor(init, requires_grad=True)
        meta = {"params": {"samples": self.samples, "finetune_epochs": self.finetune_epochs},
                "num_flows": flow_index.num_flows,
                **forward_meta(trim, flow_index.num_layers, flow_index.num_layer_edges,
                               flow_index.num_nodes)}
        if self.finetune_epochs:
            meta.update(self._refine(graph, flow_index, masks, class_idx, target, mode))

        learned = masks.tanh().numpy().copy()
        # Report on the Shapley scale (the original implementation's output
        # convention; Table VI shows FlowX scores at raw-contribution size).
        flow_scores = learned * (scale if scale > 0 else 1.0)
        if mode == "counterfactual":
            flow_scores = -flow_scores
        return Explanation(
            edge_scores=flow_scores_to_edge_scores(flow_index, flow_scores),
            predicted_class=class_idx,
            method=self.name,
            mode=mode,
            flow_scores=flow_scores,
            flow_index=flow_index,
            meta=meta,
        )

    def _refine(self, graph: Graph, flow_index: FlowIndex, masks: Tensor, class_idx: int,
                target: int | None, mode: str) -> dict:
        """Fine-tune ``masks`` on Eq. 1/2 alone (Eqs. 4/5 without ``w_l``); returns ``meta``."""
        kept = flow_index.used_layer_edge_ids()
        trim, row = LayerTrim(kept), target if target is not None else 0

        def edge_masks() -> Tensor:
            return flow_index.aggregate_scores(masks.tanh()).sigmoid()

        def step() -> Tensor:
            omega_e = edge_masks()
            logits = self.model.forward_graph(
                graph, edge_masks=[omega_e[l, ids] for l, ids in enumerate(kept)], trim=trim)
            return outcome_loss(target_log_prob(logits, row, class_idx), mode)

        loss_meta = learn_masks([masks], step, epochs=self.finetune_epochs, lr=self.lr,
                                num_flows=flow_index.num_flows)
        omega_e = edge_masks().numpy()[flow_index.used_layer_edges()]
        if mode == "counterfactual":
            omega_e = 1.0 - omega_e
        return {**loss_meta, "mean_edge_mask": float(omega_e.mean())}
