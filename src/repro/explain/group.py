"""Group learners: explainers fit once over a group of instances.

PGExplainer and GraphMask train a network over many instances, then
explain one with a single forward of it (Table V's "training (inference)"
rows). :class:`GroupExplainer` holds what they share: the fit instances
(each a :class:`~repro.graph.SampledSubgraph` context), the timed fit on
:func:`~repro.explain.mask_loop.learn_masks` (each member's forward
through its hop trim, as GNNExplainer's; the loss is the members' mean)
and the fit's loss record, which every explanation reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..autograd import Tensor
from ..errors import ExplainerError
from ..graph import Graph, SampledSubgraph
from ..nn.models import GNN, LayerTrim
from ..rng import ensure_rng
from .base import MODES, Explainer, check_int, check_real
from .mask_loop import hop_layer_edges, learn_masks, target_log_prob
from .target import ExplainTarget, as_node_id

__all__ = ["GroupExplainer", "GroupMember"]


@dataclass
class GroupMember:
    """A fit instance: its context, predicted class and hop trim."""

    context: SampledSubgraph
    class_idx: int
    trim: LayerTrim

    @property
    def graph(self) -> Graph:
        return self.context.subgraph

    @property
    def row(self) -> int:
        """The explained row: the target's, or 0 for a graph readout."""
        target = self.context.local_target
        return 0 if target is None else target

    def log_p(self, model: GNN, layer_masks: list[Tensor]) -> Tensor:
        """``log P(class)`` at the row under per-layer ``(E+N,)`` masks."""
        masks = [mask.gather_rows(ids) for mask, ids in zip(layer_masks, self.trim.layer_edges)]
        logits = model.forward_graph(self.graph, edge_masks=masks, trim=self.trim)
        return target_log_prob(logits, self.row, self.class_idx)


class GroupExplainer(Explainer):
    """Base of the explainers that :meth:`fit` over a group first. A
    subclass builds its network from ``self._rng`` and implements
    ``_group_loss(members, mode) -> (params, losses, refresh)``:
    ``losses()`` yields each member's loss, and the fit minimizes their
    mean on :func:`learn_masks` with ``refresh``."""

    supports_counterfactual = True

    def __init__(self, model: GNN, *, epochs: int, lr: float, seed: int):
        check_int("epochs", epochs, 1)
        check_real("lr", lr, 0, strict=True)
        super().__init__(model, seed=seed)
        self.epochs, self.lr = epochs, lr
        self._rng = ensure_rng(seed)
        self.fitted = False
        self.train_seconds: float | None = None
        self.fit_meta: dict = {}

    def fit_instance(self, graph: Graph, target: ExplainTarget | None) -> SampledSubgraph:
        """One :meth:`fit` input: a node target's context, or a whole graph."""
        if self.model.task == "node":
            return self.node_context(graph, as_node_id(target))
        return SampledSubgraph.whole(graph)

    def prepare_instances(self, graph_or_graphs, targets: list[ExplainTarget] | None = None
                          ) -> list[SampledSubgraph]:
        """:meth:`fit` inputs from one graph and its node targets, or from graphs."""
        if self.model.task == "node":
            return [self.fit_instance(graph_or_graphs, t) for t in targets]
        return [self.fit_instance(g, None) for g in graph_or_graphs]

    def fit(self, instances: list[SampledSubgraph], mode: str = "factual") -> "GroupExplainer":
        """Train on the instances' contexts; the loss record goes to
        :attr:`fit_meta` and every later explanation's ``meta``."""
        if not instances:
            raise ExplainerError(f"{type(self).__name__}.fit needs at least one instance")
        if mode not in MODES:
            raise ExplainerError(f"unknown mode {mode!r}; expected one of {MODES}")
        t0 = time.perf_counter()
        members = [GroupMember(c, self.predicted_class(c.subgraph, target=c.local_target),
                               LayerTrim(hop_layer_edges(c, self.model.num_layers)))
                   for c in instances]
        params, losses, refresh = self._group_loss(members, mode)

        def step() -> Tensor:
            total = None
            for loss in losses():
                total = loss if total is None else total + loss
            return total / len(members)

        self.fit_meta = learn_masks(params, step, epochs=self.epochs, lr=self.lr,
                                    refresh=refresh, method=self.name, instances=len(members))
        self.fitted = True
        self.train_seconds = time.perf_counter() - t0
        return self

    def _require_fit(self) -> None:
        if not self.fitted:
            raise ExplainerError(f"{type(self).__name__}.explain called before fit(); "
                                 "train it on a group of instances first")

    def _meta(self, edge_scores: np.ndarray) -> dict:
        """The fit's loss record, the mean reported edge score and the fit's seconds."""
        return {**self.fit_meta,
                "mean_edge_mask": float(edge_scores.mean()) if edge_scores.size else 0.0,
                "perf": {"train_seconds": self.train_seconds}}
