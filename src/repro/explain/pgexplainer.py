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

from ..autograd import MLP, Tensor, concat
from ..errors import ExplainerError
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN
from .base import Explanation, check_int, check_real
from .group import GroupExplainer, GroupMember
from .mask_loop import mean_or_zero, outcome_loss

__all__ = ["PGExplainer"]


class PGExplainer(GroupExplainer):
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

    def __init__(self, model: GNN, epochs: int = 500, lr: float = 3e-3,
                 temperature: float = 2.0, size_weight: float = 0.01,
                 entropy_weight: float = 0.1, hidden: int = 32, seed: int = 0):
        check_real("temperature", temperature, 0, strict=True)
        check_real("size_weight", size_weight, 0)
        check_real("entropy_weight", entropy_weight, 0)
        check_int("hidden", hidden, 1)
        super().__init__(model, epochs=epochs, lr=lr, seed=seed)
        self.temperature = temperature
        self.size_weight = size_weight
        self.entropy_weight = entropy_weight
        in_dim = model.hidden * (3 if model.task == "node" else 2)
        self.edge_mlp = MLP([in_dim, hidden, 1], rng=self._rng)

    def _edge_features(self, graph: Graph, target: int | None) -> Tensor:
        embeddings = self.model.node_embeddings(graph)[-1]
        feats = [embeddings[graph.src], embeddings[graph.dst]]
        if self.model.task == "node":
            if target is None:
                raise ExplainerError("node-task PGExplainer needs a target")
            feats.append(np.repeat(embeddings[target][None, :], graph.num_edges, axis=0))
        return Tensor(np.concatenate(feats, axis=1))

    def _group_loss(self, members: list[GroupMember], mode: str):
        # Frozen per fit: the edge features. Set per epoch by refresh():
        # the annealed temperature and each member's Gumbel noise.
        features = [self._edge_features(m.graph, m.row) for m in members]
        temperature = Tensor(np.zeros(()))
        noises = [Tensor(np.zeros(m.graph.num_edges)) for m in members]

        def refresh(epoch: int) -> None:
            # In place: the compiled tape reads these arrays, not the tensors.
            temperature.data[...] = max(0.5, self.temperature * (0.97 ** epoch))
            for noise in noises:
                gumbel = self._rng.random(noise.size)
                noise.data[...] = np.log(gumbel + 1e-12) - np.log(1.0 - gumbel + 1e-12)

        def losses():
            for member, feats, noise in zip(members, features, noises):
                mask = ((self.edge_mlp(feats).reshape(-1) + noise) / temperature).sigmoid()
                layer_mask = concat([mask, Tensor(np.ones(member.graph.num_nodes))])
                log_p = member.log_p(self.model, [layer_mask] * self.model.num_layers)
                entropy = -mean_or_zero(mask * mask.clip(1e-8, 1.0).log()
                                        + (1.0 - mask) * (1.0 - mask).clip(1e-8, 1.0).log())
                size = mean_or_zero(mask if mode == "factual" else 1.0 - mask)
                yield (outcome_loss(log_p, mode) + self.size_weight * size
                       + self.entropy_weight * entropy)

        return self.edge_mlp.parameters(), losses, refresh

    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        self._require_fit()
        logits = self.edge_mlp(self._edge_features(graph, target)).reshape(-1).numpy()
        scores = 1.0 / (1.0 + np.exp(-logits))
        if mode == "counterfactual":
            scores = 1.0 - scores
        return Explanation(edge_scores=scores, method=self.name, mode=mode,
                           predicted_class=self.predicted_class(graph, target=target),
                           meta=self._meta(scores))
