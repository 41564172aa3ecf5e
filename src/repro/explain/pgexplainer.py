"""PGExplainer (Luo et al., 2020): a parameterized, group-level explainer.

A small MLP scores every edge from the concatenated last-layer embeddings
of its endpoints (plus the target node's embedding for node tasks). The
MLP is trained *once* over a collection of instances with the mutual-
information objective under a concrete (Gumbel-sigmoid) relaxation of the
edge mask; explanation of a new instance is then a single forward pass of
the MLP — the reason Table V reports PGExplainer as "training (inference)"
with millisecond inference.

Paper settings: lr 3e-3, 500 training epochs.
"""

from __future__ import annotations

import numpy as np

from ..autograd import MLP, Adam, Tensor, concat, log_softmax
from ..errors import ExplainerError
from ..graph import Graph
from ..nn.models import GNN
from ..rng import ensure_rng
from .base import Explainer, Explanation
from .mask_loop import outcome_loss
from .target import ExplainTarget, as_node_id

__all__ = ["PGExplainer"]


class PGExplainer(Explainer):
    """Trainable edge-scoring network shared across instances.

    Call :meth:`fit` with training instances before :meth:`explain`.

    Parameters
    ----------
    epochs, lr:
        Training schedule (paper: 500 epochs, lr 3e-3).
    temperature:
        Concrete-relaxation temperature (annealed toward 0.5).
    size_weight, entropy_weight:
        Mask regularizer strengths.
    hidden:
        Width of the edge-scoring MLP.
    """

    name = "pgexplainer"
    supports_counterfactual = True

    def __init__(self, model: GNN, epochs: int = 500, lr: float = 3e-3,
                 temperature: float = 2.0, size_weight: float = 0.01,
                 entropy_weight: float = 0.1, hidden: int = 32, seed: int = 0):
        super().__init__(model, seed=seed)
        self.epochs = epochs
        self.lr = lr
        self.temperature = temperature
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        in_dim = model.hidden * (3 if model.task == "node" else 2)
        self._rng = ensure_rng(seed)
        self.edge_mlp = MLP([in_dim, hidden, 1], rng=self._rng)
        self.fitted = False
        self.train_seconds: float | None = None

    # ------------------------------------------------------------------
    # feature construction
    # ------------------------------------------------------------------
    def _edge_features(self, graph: Graph, target: int | None) -> np.ndarray:
        embeddings = self.model.node_embeddings(graph)[-1]
        feats = [embeddings[graph.src], embeddings[graph.dst]]
        if self.model.task == "node":
            if target is None:
                raise ExplainerError("node-task PGExplainer needs a target")
            feats.append(np.repeat(embeddings[target][None, :], graph.num_edges, axis=0))
        return np.concatenate(feats, axis=1)

    def _edge_logits(self, graph: Graph, target: int | None) -> Tensor:
        return self.edge_mlp(Tensor(self._edge_features(graph, target))).reshape(-1)

    # ------------------------------------------------------------------
    # training over a group of instances
    # ------------------------------------------------------------------
    def fit(self, instances: list[tuple[Graph, int | None]], mode: str = "factual",
            verbose: bool = False) -> "PGExplainer":
        """Train the edge MLP on ``(graph, target)`` instances.

        For node tasks the graphs should be the targets' context subgraphs
        or small graphs; pass the output of :meth:`prepare_instances` to
        handle this automatically.
        """
        import time as _time

        t0 = _time.perf_counter()
        optimizer = Adam(self.edge_mlp.parameters(), lr=self.lr)
        contexts = []
        for graph, target in instances:
            class_idx = self.predicted_class(graph, target=target)
            contexts.append((graph, target, class_idx))

        for epoch in range(self.epochs):
            temp = max(0.5, self.temperature * (0.97 ** epoch))
            optimizer.zero_grad()
            total = None
            for graph, target, class_idx in contexts:
                loss = self._instance_loss(graph, target, class_idx, temp, mode)
                total = loss if total is None else total + loss
            total = total / len(contexts)
            total.backward()
            optimizer.step()
            if verbose and epoch % 50 == 0:
                print(f"pgexplainer epoch {epoch}: loss {total.item():.4f}")
        self.fitted = True
        self.train_seconds = _time.perf_counter() - t0
        return self

    def _instance_loss(self, graph: Graph, target: int | None, class_idx: int,
                       temperature: float, mode: str) -> Tensor:
        logits = self._edge_logits(graph, target)
        gumbel = self._rng.random(graph.num_edges)
        noise = np.log(gumbel + 1e-12) - np.log(1.0 - gumbel + 1e-12)
        mask = ((logits + Tensor(noise)) / temperature).sigmoid()

        loop_block = Tensor(np.ones(graph.num_nodes))
        layer_mask = concat([mask, loop_block])
        layer_masks = [layer_mask] * self.model.num_layers
        log_probs = log_softmax(self.model.forward_graph(graph, edge_masks=layer_masks), axis=-1)
        row = target if target is not None else 0
        log_p = log_probs[row, class_idx]

        entropy = -(mask * mask.clip(1e-8, 1.0).log()
                    + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log()).mean()
        size = mask.mean() if mode == "factual" else (1.0 - mask).mean()
        return (outcome_loss(log_p, mode) + self.size_weight * size
                + self.entropy_weight * entropy)

    # ------------------------------------------------------------------
    # per-instance inference
    # ------------------------------------------------------------------
    def _explain_instance(self, graph: Graph, target: int | None,
                          mode: str) -> Explanation:
        self._require_fit()
        scores = 1.0 / (1.0 + np.exp(-self._edge_logits(graph, target).numpy()))
        if mode == "counterfactual":
            scores = 1.0 - scores
        return Explanation(
            edge_scores=scores,
            predicted_class=self.predicted_class(graph, target=target),
            method=self.name,
            mode=mode,
            meta={"perf": {"train_seconds": self.train_seconds}},
        )

    def _require_fit(self) -> None:
        if not self.fitted:
            raise ExplainerError("PGExplainer.explain called before fit(); "
                                 "train it on a group of instances first")

    def prepare_instances(self, graph_or_graphs,
                          targets: list[ExplainTarget] | None = None,
                          mode: str = "factual") -> list[tuple[Graph, int | None]]:
        """Build fit() inputs: context subgraphs for node targets, or the
        graphs themselves for graph tasks."""
        if self.model.task == "node":
            out = []
            for t in targets:
                ctx = self.node_context(graph_or_graphs, as_node_id(t))
                out.append((ctx.subgraph, ctx.local_target))
            return out
        return [(g, None) for g in graph_or_graphs]
