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

from ..autograd import MLP, Sigmoid, Tensor, concat
from ..errors import ExplainerError
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN
from ..sparse import feature_dense
from .base import Explanation, check_int, check_real
from .group import GroupExplainer, GroupMember
from .mask_loop import mean_or_zero, outcome_loss

__all__ = ["GraphMask"]


class GraphMask(GroupExplainer):
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

    # Hard-concrete stretch interval and temperature (reference values).
    _GAMMA, _ZETA, _BETA = -0.1, 1.1, 2.0 / 3.0

    def __init__(self, model: GNN, epochs: int = 200, lr: float = 1e-2,
                 sparsity_weight: float = 0.05, hidden: int = 32,
                 gate: str = "sigmoid", seed: int = 0):
        if gate not in ("sigmoid", "hard_concrete"):
            raise ExplainerError(f"unknown gate type {gate!r}")
        check_real("sparsity_weight", sparsity_weight, 0)
        check_int("hidden", hidden, 1)
        super().__init__(model, epochs=epochs, lr=lr, seed=seed)
        self.sparsity_weight = sparsity_weight
        self.gate_type = gate
        # One gate network per GNN layer; layer 1 sees raw features, deeper
        # layers see hidden embeddings. Sigmoid gates squash in the MLP;
        # hard-concrete gates keep raw logits and transform them below.
        self.gates = []
        for l in range(model.num_layers):
            in_dim = 2 * (model.in_features if l == 0 else model.hidden)
            final = Sigmoid() if gate == "sigmoid" else None
            self.gates.append(MLP([in_dim, hidden, 1], rng=self._rng,
                                  final_activation=final))

    # ------------------------------------------------------------------
    def _gate_outputs(self, graph: Graph) -> list[Tensor]:
        """Each layer's gate-network output per data edge, from its input
        ``[h_src || h_dst]``: the gates themselves (sigmoid) or their
        logits (hard concrete)."""
        embeddings = [feature_dense(graph.x)] + self.model.node_embeddings(graph)[:-1]
        return [gate(Tensor(np.concatenate([h[graph.src], h[graph.dst]], axis=1))).reshape(-1)
                for gate, h in zip(self.gates, embeddings)]

    def _logistic_noise(self, shape: tuple[int, ...]) -> np.ndarray:
        """The hard-concrete relaxation's noise, from the explainer's generator."""
        u = self._rng.uniform(1e-6, 1.0 - 1e-6, size=shape)
        return np.log(u) - np.log(1.0 - u)

    def _hard_concrete(self, logits: Tensor, training: bool,
                       noise: Tensor | None = None) -> Tensor:
        """Stretched, clipped (hard) concrete gate from raw logits: sampled
        with logistic ``noise`` (a fresh draw if none) in training, else expected."""
        gamma, zeta, beta = self._GAMMA, self._ZETA, self._BETA
        if training:
            noise = noise if noise is not None else Tensor(self._logistic_noise(logits.shape))
            s = ((logits + noise) / beta).sigmoid()
        else:
            s = logits.sigmoid()
        stretched = s * (zeta - gamma) + gamma
        return stretched.clip(0.0, 1.0)

    def _l0_penalty(self, logits: Tensor) -> Tensor:
        """P(gate > 0) under the hard-concrete distribution (the L0 term)."""
        shift = self._BETA * np.log(-self._GAMMA / self._ZETA)
        return (logits - shift).sigmoid()

    # ------------------------------------------------------------------
    def _group_loss(self, members: list[GroupMember], mode: str):
        # The gate networks' frozen inputs are built once, when epoch 1 is
        # recorded. Set per epoch by refresh(): the hard-concrete noise.
        hard = self.gate_type == "hard_concrete"
        noises = [[Tensor(np.zeros(m.graph.num_edges)) for _ in self.gates] for m in members]

        def refresh(epoch: int) -> None:
            # In place: the compiled tape reads these arrays, not the tensors.
            for noise in (n for layer_noises in noises for n in layer_noises):
                noise.data[...] = self._logistic_noise(noise.shape)

        def losses():
            for member, noise in zip(members, noises):
                outputs = self._gate_outputs(member.graph)
                gates = [self._hard_concrete(out, True, n) for out, n in zip(outputs, noise)] \
                    if hard else outputs
                loops = Tensor(np.ones(member.graph.num_nodes))
                log_p = member.log_p(self.model, [concat([gate, loops]) for gate in gates])
                open_gates = None
                for out in outputs:
                    s = mean_or_zero(self._l0_penalty(out) if hard else out)
                    open_gates = s if open_gates is None else open_gates + s
                open_gates = open_gates / self.model.num_layers
                if mode == "counterfactual":
                    open_gates = 1.0 - open_gates
                yield outcome_loss(log_p, mode) + self.sparsity_weight * open_gates

        return [p for g in self.gates for p in g.parameters()], losses, refresh if hard else None

    # ------------------------------------------------------------------
    def _explain_instance(self, context: SampledSubgraph, mode: str) -> Explanation:
        graph, target = context.subgraph, context.local_target
        self._require_fit()
        gates = self._gate_outputs(graph)
        if self.gate_type == "hard_concrete":
            gates = [self._hard_concrete(out, False) for out in gates]
        layer_scores = np.stack([np.concatenate([g.numpy(), np.ones(graph.num_nodes)])
                                 for g in gates])
        edge_scores = layer_scores[:, :graph.num_edges].mean(axis=0)
        if mode == "counterfactual":
            edge_scores = 1.0 - edge_scores
            layer_scores = 1.0 - layer_scores
        return Explanation(edge_scores=edge_scores, method=self.name, mode=mode,
                           predicted_class=self.predicted_class(graph, target=target),
                           layer_edge_scores=layer_scores, meta=self._meta(edge_scores))
