"""Perturbation explainers and fidelity sweeps vs. their serial oracles.

The library evaluates every perturbation (FlowX coalitions, GNN-LRP
stencils, SubgraphX Shapley samples, PGM-Explainer rounds, fidelity grid
points) through the batched masked-forward engine. The serial, one-forward
per-perturbation implementations they replaced live on here, in oracle
subclasses that draw randomness in the same order, so each explainer must
match its oracle to float tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, softmax
from repro.eval.fidelity import Instance, fidelity_curve, fidelity_minus, fidelity_plus
from repro.explain.base import Explanation, clear_context_cache
from repro.explain.flowx import FlowX
from repro.explain.gnn_lrp import GNNLRP
from repro.explain.pgm_explainer import PGMExplainer
from repro.explain.subgraphx import SubgraphX
from repro.flows import FLOW_CACHE, cached_enumerate_flows


@pytest.fixture(autouse=True)
def _clean_caches():
    FLOW_CACHE.clear()
    clear_context_cache()
    yield
    FLOW_CACHE.clear()
    clear_context_cache()


def _masked_output(model, graph, layer_masks, target, *, proba):
    """One tape-free forward under ``(L, E+N)`` masks; the target's row."""
    with no_grad():
        masks = [Tensor(layer_masks[l]) for l in range(layer_masks.shape[0])]
        out = model.forward_graph(graph, edge_masks=masks)
        out = (softmax(out, axis=-1) if proba else out).numpy()
    return out[target] if target is not None else out[0]


class SerialFlowX(FlowX):
    """Stage 1 with one masked forward per toggled layer edge."""

    def _shapley_flow_scores(self, graph, flow_index, class_idx, target, rng):
        num_layers = flow_index.num_layers
        width = flow_index.num_layer_edges
        used = flow_index.used_layer_edges()
        used_pairs = np.argwhere(used)
        contributions = np.zeros(flow_index.num_flows)
        counts = np.zeros(flow_index.num_flows)
        flows_per_edge = flow_index.flows_per_layer_edge()

        def probability(coalition):
            return float(_masked_output(self.model, graph, coalition, target,
                                        proba=True)[class_idx])

        for _ in range(self.samples):
            keep_prob = rng.uniform(0.3, 0.95)
            coalition = (rng.random((num_layers, width)) < keep_prob).astype(np.float64)
            coalition[~used] = 1.0
            if self.edges_per_sample is not None and used_pairs.shape[0] > self.edges_per_sample:
                picks = used_pairs[rng.choice(used_pairs.shape[0], self.edges_per_sample,
                                              replace=False)]
            else:
                picks = used_pairs
            p_base = probability(coalition)
            for layer, edge in picks:
                n_flows = flows_per_edge[layer, edge]
                if coalition[layer, edge] == 0.0 or n_flows == 0:
                    continue
                coalition[layer, edge] = 0.0
                p_without = probability(coalition)
                coalition[layer, edge] = 1.0
                members = flow_index.flows_through(layer + 1, edge)
                contributions[members] += (p_base - p_without) / n_flows
                counts[members] += 1.0
        return contributions / np.maximum(counts, 1.0)


class SerialGNNLRP(GNNLRP):
    """One masked forward per finite-difference stencil point; dense
    ``np.add.at`` edge transfer."""

    def _explain_instance(self, graph, target, mode):
        flow_index = cached_enumerate_flows(graph, self.model.num_layers, target=target,
                                            max_flows=self.max_flows)
        class_idx = self.predicted_class(graph, target=target)
        num_layers = flow_index.num_layers
        h = self.step
        cache: dict[tuple, float] = {}
        scores = np.zeros(flow_index.num_flows)
        for f in range(flow_index.num_flows):
            path = flow_index.layer_edges[f]
            total = 0.0
            for signs in itertools.product((-1.0, 1.0), repeat=num_layers):
                key = tuple(zip(range(num_layers), path.tolist(), signs))
                if key not in cache:
                    masks = np.ones((num_layers, flow_index.num_layer_edges))
                    for l, (edge, s) in enumerate(zip(path, signs)):
                        masks[l, edge] += s * h
                    cache[key] = float(_masked_output(self.model, graph, masks, target,
                                                      proba=False)[class_idx])
                total += float(np.prod(signs)) * cache[key]
            scores[f] = total / (2.0 * h) ** num_layers

        aug_scores = np.zeros(flow_index.num_layer_edges)
        np.add.at(aug_scores, flow_index.layer_edges.reshape(-1),
                  np.repeat(scores, num_layers))
        return Explanation(edge_scores=aug_scores[:flow_index.num_edges],
                           predicted_class=class_idx, method=self.name, mode=mode,
                           flow_scores=scores, flow_index=flow_index)


class SerialSubgraphX(SubgraphX):
    """One pruned-graph forward per Shapley sample."""

    def _coalition_probability(self, graph, coalition, class_idx, target):
        members = np.zeros(graph.num_nodes, dtype=bool)
        members[list(coalition)] = True
        pruned = graph.with_edges(members[graph.src] & members[graph.dst])
        proba = self.model.predict_proba(pruned)
        return float((proba[target] if target is not None else proba[0])[class_idx])

    def _shapley_reward(self, graph, coalition, class_idx, target, rng):
        outside = [v for v in range(graph.num_nodes) if v not in coalition]
        extras_list = [frozenset(v for v in outside if rng.random() < 0.5)
                       if outside else frozenset()
                       for _ in range(self.shapley_samples)]
        baseline = 1.0 / self.model.num_classes
        total = 0.0
        for extras in extras_list:
            with_c = self._coalition_probability(graph, coalition | extras, class_idx, target)
            without_c = self._coalition_probability(graph, extras, class_idx, target) \
                if extras else baseline
            total += with_c - without_c
        return total / self.shapley_samples


class SerialPGMExplainer(PGMExplainer):
    """One forward per perturbation round over a copied graph.

    Only the round evaluation is overridden; the chi-square scoring is
    inherited, so this case checks the batched rounds alone.
    """

    def _round_probabilities(self, graph, flags, replacement, row, class_idx):
        work = graph.copy()
        p_samples = np.empty(len(flags))
        for s in range(len(flags)):
            work.x = np.where(flags[s][:, None], replacement, graph.x)
            p_samples[s] = self.model.predict_proba(work)[row, class_idx]
        return p_samples


NODE_CASES = {
    "flowx": (FlowX, SerialFlowX, {"samples": 3, "finetune_epochs": 5}),
    "gnn_lrp": (GNNLRP, SerialGNNLRP, {}),
    "subgraphx": (SubgraphX, SerialSubgraphX, {"rollouts": 4, "shapley_samples": 3}),
    "pgm_explainer": (PGMExplainer, SerialPGMExplainer, {"num_samples": 30}),
}
# PGM-Explainer's node case scores all-zero on mini BA-Shapes (no round
# moves the prediction by 10%); its graph case exercises real chi-square
# scores.
GRAPH_CASES = {
    "flowx": (FlowX, SerialFlowX, {"samples": 2, "finetune_epochs": 3}),
    "gnn_lrp": (GNNLRP, SerialGNNLRP, {"max_flows": 500_000}),
    "pgm_explainer": (PGMExplainer, SerialPGMExplainer, {"num_samples": 30}),
}


def _assert_pair_matches(case, model, graph, target=None):
    batched_cls, serial_cls, params = case
    batched = batched_cls(model, seed=0, **params).explain(graph, target)
    serial = serial_cls(model, seed=0, **params).explain(graph, target)
    np.testing.assert_allclose(batched.edge_scores, serial.edge_scores, atol=1e-8)
    assert batched.predicted_class == serial.predicted_class
    if serial.flow_scores is not None:
        # Flow scores live on each method's own scale (FlowX's Shapley
        # values are ~1e-3), so they are held to 1e-8 of their largest.
        scale = np.abs(serial.flow_scores).max()
        np.testing.assert_allclose(batched.flow_scores, serial.flow_scores,
                                   rtol=0, atol=1e-8 * scale)


@pytest.mark.parametrize("name", sorted(NODE_CASES))
def test_batched_matches_serial_node_task(mini_ba_shapes, node_model, good_motif_node, name):
    _assert_pair_matches(NODE_CASES[name], node_model, mini_ba_shapes.graph, good_motif_node)


@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_batched_matches_serial_graph_task(mini_mutag, graph_model, name):
    _assert_pair_matches(GRAPH_CASES[name], graph_model, mini_mutag.graphs[0])


def test_fidelity_curve_batched_matches_serial(mini_ba_shapes, node_model, good_motif_node):
    graph = mini_ba_shapes.graph
    explanation = FlowX(node_model, samples=2, finetune_epochs=3, seed=0).explain(
        graph, good_motif_node)
    instances = [Instance(graph, good_motif_node)]
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for metric, serial in (("minus", fidelity_minus), ("plus", fidelity_plus)):
        curve = fidelity_curve(node_model, instances, [explanation], grid, metric=metric)
        for s in grid:
            assert abs(curve[s] - serial(node_model, instances, [explanation], s)) < 1e-8
