"""GraphMask (Schlichtkrull et al., 2021), simplified.

Per-layer gate networks score each message from the endpoint embeddings of
its edge; gates are trained across a group of instances to *drop* as many
messages as possible (L0-style sparsity) while keeping the prediction
unchanged (or, in counterfactual mode, while flipping it). Dropped
messages are replaced by a learned baseline vector in the original; this
reproduction uses multiplicative gating (baseline 0), which the masked
message-passing hook supports directly.

Paper settings: lr 1e-2, 200 training epochs.
"""

from __future__ import annotations

import numpy as np

from ..autograd import MLP, Adam, Sigmoid, Tensor, concat, log_softmax
from ..errors import ExplainerError
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from ..sparse import feature_dense
from .base import Explainer, Explanation
from .mask_loop import mean_or_zero, outcome_loss
from .target import ExplainTarget, as_node_id

__all__ = ["GraphMask"]


class GraphMask(Explainer):
    """Layer-wise message gating trained over a group of instances.

    Parameters
    ----------
    epochs, lr:
        Training schedule (paper: 200 epochs, lr 1e-2).
    sparsity_weight:
        Strength of the L0-surrogate penalty on open gates.
    hidden:
        Gate-MLP width.
    gate:
        ``"sigmoid"`` — simple deterministic gates (default, cheap) — or
        ``"hard_concrete"`` — the original GraphMask's stochastic
        hard-concrete relaxation (Louizos et al., 2018): gates can reach
        exactly 0/1 and the sparsity penalty is the L0 open-probability.
    """

    name = "graphmask"
    supports_counterfactual = True

    # Hard-concrete stretch interval and temperature (reference values).
    _GAMMA, _ZETA, _BETA = -0.1, 1.1, 2.0 / 3.0

    def __init__(self, model: GNN, epochs: int = 200, lr: float = 1e-2,
                 sparsity_weight: float = 0.05, hidden: int = 32,
                 gate: str = "sigmoid", seed: int = 0):
        super().__init__(model, seed=seed)
        if gate not in ("sigmoid", "hard_concrete"):
            raise ExplainerError(f"unknown gate type {gate!r}")
        self.epochs = epochs
        self.lr = lr
        self.sparsity_weight = sparsity_weight
        self.gate_type = gate
        self._rng = ensure_rng(seed)
        # One gate network per GNN layer; layer 1 sees raw features, deeper
        # layers see hidden embeddings. Sigmoid gates squash in the MLP;
        # hard-concrete gates keep raw logits and transform them below.
        self.gates = []
        for l in range(model.num_layers):
            in_dim = 2 * (model.in_features if l == 0 else model.hidden)
            final = Sigmoid() if gate == "sigmoid" else None
            self.gates.append(MLP([in_dim, hidden, 1], rng=self._rng,
                                  final_activation=final))
        self.fitted = False
        self.train_seconds: float | None = None

    # ------------------------------------------------------------------
    def _layer_inputs(self, graph: Graph) -> list[np.ndarray]:
        """Per-layer gate-network inputs [h_src || h_dst] (data level)."""
        embeddings = [feature_dense(graph.x)] + self.model.node_embeddings(graph)[:-1]
        feats = []
        for l in range(self.model.num_layers):
            h = embeddings[l]
            feats.append(np.concatenate([h[graph.src], h[graph.dst]], axis=1))
        return feats

    def _hard_concrete(self, logits: Tensor, training: bool) -> Tensor:
        """Stretched, clipped (hard) concrete gate from raw logits.

        Training draws the stochastic relaxation; evaluation uses the
        deterministic expected gate.
        """
        gamma, zeta, beta = self._GAMMA, self._ZETA, self._BETA
        if training:
            u = self._rng.uniform(1e-6, 1.0 - 1e-6, size=logits.shape)
            noise = Tensor(np.log(u) - np.log(1.0 - u))
            s = ((logits + noise) / beta).sigmoid()
        else:
            s = logits.sigmoid()
        stretched = s * (zeta - gamma) + gamma
        return stretched.clip(0.0, 1.0)

    def _l0_penalty(self, logits: Tensor) -> Tensor:
        """P(gate > 0) under the hard-concrete distribution (the L0 term)."""
        shift = self._BETA * np.log(-self._GAMMA / self._ZETA)
        return (logits - shift).sigmoid()

    def _gate_masks(self, graph: Graph, training: bool = False) -> list[Tensor]:
        """Per-layer (E+N,) masks: gated data edges + always-open loops."""
        feats = self._layer_inputs(graph)
        loop_block = Tensor(np.ones(graph.num_nodes))
        masks = []
        self._last_logits: list[Tensor] = []
        for l in range(self.model.num_layers):
            out = self.gates[l](Tensor(feats[l])).reshape(-1)
            if self.gate_type == "hard_concrete":
                self._last_logits.append(out)
                gate = self._hard_concrete(out, training)
            else:
                gate = out
            masks.append(concat([gate, loop_block]))
        return masks

    # ------------------------------------------------------------------
    def fit(self, instances: list[tuple[Graph, int | None]], mode: str = "factual",
            verbose: bool = False) -> "GraphMask":
        """Train gate networks on ``(graph, target)`` instances."""
        import time as _time

        t0 = _time.perf_counter()
        params = [p for g in self.gates for p in g.parameters()]
        optimizer = Adam(params, lr=self.lr)
        contexts = [(g, t, self.predicted_class(g, target=t)) for g, t in instances]

        for epoch in range(self.epochs):
            optimizer.zero_grad()
            total = None
            for graph, target, class_idx in contexts:
                masks = self._gate_masks(graph, training=True)
                log_probs = log_softmax(
                    self.model.forward_graph(graph, edge_masks=masks), axis=-1
                )
                row = target if target is not None else 0
                log_p = log_probs[row, class_idx]
                open_gates = None
                if self.gate_type == "hard_concrete":
                    for logits in self._last_logits:
                        s = mean_or_zero(self._l0_penalty(logits))
                        open_gates = s if open_gates is None else open_gates + s
                else:
                    for m in masks:
                        s = mean_or_zero(m[:graph.num_edges])
                        open_gates = s if open_gates is None else open_gates + s
                open_gates = open_gates / self.model.num_layers
                if mode == "counterfactual":
                    open_gates = 1.0 - open_gates
                loss = outcome_loss(log_p, mode) + self.sparsity_weight * open_gates
                total = loss if total is None else total + loss
            total = total / len(contexts)
            total.backward()
            optimizer.step()
            if verbose and epoch % 50 == 0:
                print(f"graphmask epoch {epoch}: loss {total.item():.4f}")
        self.fitted = True
        self.train_seconds = _time.perf_counter() - t0
        return self

    # ------------------------------------------------------------------
    def _explain_instance(self, graph: Graph, target: int | None,
                          mode: str) -> Explanation:
        self._require_fit()
        layer_scores, edge_scores = self._scores(graph)
        if mode == "counterfactual":
            edge_scores = 1.0 - edge_scores
            layer_scores = 1.0 - layer_scores
        return Explanation(
            edge_scores=edge_scores,
            predicted_class=self.predicted_class(graph, target=target),
            method=self.name,
            mode=mode,
            layer_edge_scores=layer_scores,
            meta={"perf": {"train_seconds": self.train_seconds}},
        )

    def _scores(self, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
        masks = self._gate_masks(graph)
        layer_scores = np.stack([m.numpy().copy() for m in masks])
        edge_scores = layer_scores[:, :graph.num_edges].mean(axis=0)
        return layer_scores, edge_scores

    def _require_fit(self) -> None:
        if not self.fitted:
            raise ExplainerError("GraphMask.explain called before fit()")

    def prepare_instances(
            self, graph_or_graphs,
            targets: list[ExplainTarget] | None = None,
    ) -> list[tuple[Graph, int | None]]:
        """Build fit() inputs (same contract as PGExplainer)."""
        if self.model.task == "node":
            out = []
            for t in targets:
                ctx = self.node_context(graph_or_graphs, as_node_id(t))
                out.append((ctx.subgraph, ctx.local_target))
            return out
        return [(g, None) for g in graph_or_graphs]
