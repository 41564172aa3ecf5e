"""Fidelity metrics (Eqs. 10/11)."""

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval import (
    Instance,
    class_probability,
    fidelity_curve,
    fidelity_minus,
    fidelity_plus,
)
from repro.explain import ExplainTarget
from repro.explain.base import Explanation


def perfect_explanation(model, graph, target=None):
    """Oracle scores: each edge's true leave-one-out importance."""
    c = int(model.predict(graph)[target if target is not None else 0])
    p_full = class_probability(model, graph, c, target=target)
    scores = np.zeros(graph.num_edges)
    for e in range(graph.num_edges):
        keep = np.ones(graph.num_edges, dtype=bool)
        keep[e] = False
        p = class_probability(model, graph.with_edges(keep), c, target=target)
        scores[e] = p_full - p
    return Explanation(edge_scores=scores, predicted_class=c, method="oracle",
                       target=target)


class TestClassProbability:
    def test_graph_task(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        p = class_probability(graph_model, g, 0)
        assert 0.0 <= p <= 1.0

    def test_node_task(self, node_model, mini_ba_shapes):
        p = class_probability(node_model, mini_ba_shapes.graph, 1,
                              target=ExplainTarget.node(3))
        assert 0.0 <= p <= 1.0

    def test_probabilities_sum(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        total = sum(class_probability(graph_model, g, c) for c in range(2))
        assert total == pytest.approx(1.0)


class TestFidelityMechanics:
    def test_mismatched_lengths(self, graph_model, mini_mutag):
        inst = [Instance(mini_mutag.graphs[0])]
        with pytest.raises(EvaluationError):
            fidelity_minus(graph_model, inst, [], 0.5)

    def test_empty_instances(self, graph_model):
        with pytest.raises(EvaluationError):
            fidelity_minus(graph_model, [], [], 0.5)

    def test_fidelity_zero_sparsity_keeps_graph(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e = Explanation(edge_scores=np.random.default_rng(0).random(g.num_edges),
                        predicted_class=int(graph_model.predict(g)[0]), method="r")
        fm = fidelity_minus(graph_model, [Instance(g)], [e], 0.0)
        assert fm == pytest.approx(0.0, abs=1e-12)  # nothing removed

    def test_oracle_beats_anti_oracle(self, graph_model, mini_mutag):
        g = next(g for g in mini_mutag.graphs
                 if int(g.y) == 1 and graph_model.predict(g)[0] == 1)
        oracle = perfect_explanation(graph_model, g)
        anti = Explanation(edge_scores=-oracle.edge_scores,
                           predicted_class=oracle.predicted_class, method="anti")
        inst = [Instance(g)]
        fp_oracle = fidelity_plus(graph_model, inst, [oracle], 0.7)
        fp_anti = fidelity_plus(graph_model, inst, [anti], 0.7)
        assert fp_oracle >= fp_anti

    def test_curve_shape(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e = Explanation(edge_scores=np.random.default_rng(0).random(g.num_edges),
                        predicted_class=int(graph_model.predict(g)[0]), method="r")
        curve = fidelity_curve(graph_model, [Instance(g)], [e], [0.5, 0.7, 0.9])
        assert set(curve) == {0.5, 0.7, 0.9}

    def test_curve_bad_metric(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e = Explanation(edge_scores=np.zeros(g.num_edges), predicted_class=0, method="r")
        with pytest.raises(EvaluationError):
            fidelity_curve(graph_model, [Instance(g)], [e], [0.5], metric="abs")

    def test_fidelity_bounded(self, graph_model, mini_mutag):
        # Fidelity ∈ (1/C - 1, 1) theoretically (paper §V-B).
        g = mini_mutag.graphs[0]
        e = Explanation(edge_scores=np.random.default_rng(1).random(g.num_edges),
                        predicted_class=int(graph_model.predict(g)[0]), method="r")
        for s in (0.5, 0.9):
            for fn in (fidelity_minus, fidelity_plus):
                v = fn(graph_model, [Instance(g)], [e], s)
                assert -1.0 < v < 1.0

    def test_node_task_respects_context(self, node_model, mini_ba_shapes,
                                        good_motif_node):
        graph = mini_ba_shapes.graph
        ctx_edges = np.array([0, 1, 2])
        e = Explanation(edge_scores=np.random.default_rng(0).random(graph.num_edges),
                        predicted_class=int(node_model.predict(graph)[good_motif_node]),
                        method="r", target=good_motif_node,
                        context_edge_positions=ctx_edges)
        # only 3 candidate edges; fidelity must be computable
        v = fidelity_minus(node_model, [Instance(graph, ExplainTarget.node(good_motif_node))], [e], 0.5)
        assert np.isfinite(v)

    def test_averages_over_instances(self, graph_model, mini_mutag):
        gs = mini_mutag.graphs[:3]
        insts = [Instance(g) for g in gs]
        exps = [Explanation(edge_scores=np.random.default_rng(i).random(g.num_edges),
                            predicted_class=int(graph_model.predict(g)[0]), method="r")
                for i, g in enumerate(gs)]
        mean_v = fidelity_minus(graph_model, insts, exps, 0.5)
        singles = [fidelity_minus(graph_model, [i], [e], 0.5)
                   for i, e in zip(insts, exps)]
        assert mean_v == pytest.approx(np.mean(singles))
