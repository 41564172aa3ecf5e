"""GradCAM and DeepLIFT: fast gradient baselines."""

import numpy as np

from repro.explain import DeepLIFT, ExplainTarget, GradCAM


class TestGradCAM:
    def test_node_explanation_shape(self, node_model, mini_ba_shapes, good_motif_node):
        e = GradCAM(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)
        assert e.method == "gradcam"

    def test_scores_nonnegative(self, node_model, mini_ba_shapes, good_motif_node):
        # GradCAM heat is ReLU'd, so edge scores are >= 0.
        e = GradCAM(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert (e.edge_scores >= 0).all()

    def test_graph_explanation(self, graph_model, mini_mutag):
        e = GradCAM(graph_model).explain(mini_mutag.graphs[0])
        assert e.edge_scores.shape == (mini_mutag.graphs[0].num_edges,)
        assert e.context_edge_positions is None

    def test_deterministic(self, node_model, mini_ba_shapes, good_motif_node):
        e1 = GradCAM(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        e2 = GradCAM(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_counterfactual_mode_reuses_scores(self, node_model, mini_ba_shapes,
                                               good_motif_node):
        g = mini_ba_shapes.graph
        ef = GradCAM(node_model).explain(g, target=ExplainTarget.node(good_motif_node), mode="factual")
        ec = GradCAM(node_model).explain(g, target=ExplainTarget.node(good_motif_node), mode="counterfactual")
        assert np.allclose(ef.edge_scores, ec.edge_scores)
        assert ec.mode == "counterfactual"

    def test_not_flow_based(self, node_model):
        assert not GradCAM(node_model).is_flow_based


class TestDeepLIFT:
    def test_node_explanation_shape(self, node_model, mini_ba_shapes, good_motif_node):
        e = DeepLIFT(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_graph_explanation(self, graph_model, mini_mutag):
        e = DeepLIFT(graph_model).explain(mini_mutag.graphs[1])
        assert np.isfinite(e.edge_scores).all()

    def test_zero_baseline_zero_input_gives_zero(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0].copy()
        g.x = np.zeros_like(g.x)
        e = DeepLIFT(graph_model).explain(g)
        assert np.allclose(e.edge_scores, 0.0)

    def test_custom_baseline_changes_scores(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e0 = DeepLIFT(graph_model, baseline=0.0).explain(g)
        e1 = DeepLIFT(graph_model, baseline=0.5).explain(g)
        assert not np.allclose(e0.edge_scores, e1.edge_scores)

    def test_signed_attributions_allowed(self, node_model, mini_ba_shapes,
                                         good_motif_node):
        e = DeepLIFT(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        # gradient × input is signed — nothing should force positivity
        assert np.isfinite(e.edge_scores).all()
