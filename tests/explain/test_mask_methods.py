"""GNNExplainer, PGExplainer and GraphMask: mask-learning baselines."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, GNNExplainer, GraphMask, PGExplainer


class TestGNNExplainer:
    def test_node_explanation(self, node_model, mini_ba_shapes, good_motif_node):
        e = GNNExplainer(node_model, epochs=30).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_scores_in_unit_interval(self, node_model, mini_ba_shapes, good_motif_node):
        e = GNNExplainer(node_model, epochs=30).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        ctx_scores = e.edge_scores[e.context_edge_positions]
        assert ((ctx_scores >= 0) & (ctx_scores <= 1)).all()

    def test_graph_explanation(self, graph_model, mini_mutag):
        e = GNNExplainer(graph_model, epochs=30).explain(mini_mutag.graphs[0])
        assert e.edge_scores.shape == (mini_mutag.graphs[0].num_edges,)

    def test_counterfactual_inverts_scores(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        # Same seed, same epochs: factual and cf solve different objectives,
        # but cf scores are reported as 1 - sigmoid(m).
        e = GNNExplainer(graph_model, epochs=5, seed=0).explain(g, mode="counterfactual")
        assert ((e.edge_scores >= 0) & (e.edge_scores <= 1)).all()
        assert e.mode == "counterfactual"

    def test_deterministic(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[2]
        e1 = GNNExplainer(graph_model, epochs=10, seed=4).explain(g)
        e2 = GNNExplainer(graph_model, epochs=10, seed=4).explain(g)
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_learning_moves_masks(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e = GNNExplainer(graph_model, epochs=60, lr=0.05).explain(g)
        assert e.edge_scores.std() > 1e-3  # not stuck at initialization


class TestPGExplainer:
    def test_requires_fit(self, node_model, mini_ba_shapes):
        with pytest.raises(ExplainerError):
            PGExplainer(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(0))

    def test_fit_then_explain_node(self, node_model, mini_ba_shapes, good_motif_node):
        expl = PGExplainer(node_model, epochs=10)
        instances = expl.prepare_instances(mini_ba_shapes.graph,
                                           targets=[ExplainTarget.node(good_motif_node)])
        expl.fit(instances)
        e = expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)
        assert e.meta["perf"]["train_seconds"] > 0

    def test_fit_then_explain_graph(self, graph_model, mini_mutag):
        expl = PGExplainer(graph_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:4]))
        e = expl.explain(mini_mutag.graphs[5])
        assert ((e.edge_scores >= 0) & (e.edge_scores <= 1)).all()

    def test_inference_fast_after_training(self, graph_model, mini_mutag):
        import time

        expl = PGExplainer(graph_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]))
        t0 = time.perf_counter()
        expl.explain(mini_mutag.graphs[4])
        assert time.perf_counter() - t0 < 0.5  # single MLP pass

    def test_generalizes_across_instances(self, graph_model, mini_mutag):
        # group-level: one fit explains unseen graphs
        expl = PGExplainer(graph_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]))
        e1 = expl.explain(mini_mutag.graphs[7])
        e2 = expl.explain(mini_mutag.graphs[8])
        assert e1.edge_scores.shape[0] == mini_mutag.graphs[7].num_edges
        assert e2.edge_scores.shape[0] == mini_mutag.graphs[8].num_edges

    def test_counterfactual_mode(self, graph_model, mini_mutag):
        expl = PGExplainer(graph_model, epochs=5)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]), mode="counterfactual")
        e = expl.explain(mini_mutag.graphs[4], mode="counterfactual")
        assert e.mode == "counterfactual"


class TestGraphMask:
    def test_requires_fit(self, node_model, mini_ba_shapes):
        with pytest.raises(ExplainerError):
            GraphMask(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(0))

    def test_fit_then_explain(self, graph_model, mini_mutag):
        expl = GraphMask(graph_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]))
        e = expl.explain(mini_mutag.graphs[4])
        assert ((e.edge_scores >= 0) & (e.edge_scores <= 1)).all()

    def test_layer_scores_provided(self, graph_model, mini_mutag):
        expl = GraphMask(graph_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]))
        g = mini_mutag.graphs[4]
        e = expl.explain(g)
        assert e.layer_edge_scores.shape == (
            graph_model.num_layers, g.num_edges + g.num_nodes)

    def test_node_task(self, node_model, mini_ba_shapes, good_motif_node):
        expl = GraphMask(node_model, epochs=10)
        expl.fit(expl.prepare_instances(mini_ba_shapes.graph,
                                        targets=[ExplainTarget.node(good_motif_node)]))
        e = expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_counterfactual_flips_scores(self, graph_model, mini_mutag):
        expl = GraphMask(graph_model, epochs=5)
        expl.fit(expl.prepare_instances(mini_mutag.graphs[:3]))
        g = mini_mutag.graphs[4]
        ef = expl.explain(g, mode="factual")
        ec = expl.explain(g, mode="counterfactual")
        assert np.allclose(ef.edge_scores, 1.0 - ec.edge_scores)
