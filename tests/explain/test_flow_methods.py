"""FlowX and GNN-LRP: flow-based baselines."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, FlowX, GNNLRP
from repro.explain.flow_common import (
    flow_scores_to_edge_scores,
    masked_probability_batch,
    sigmoid,
)
from repro.flows import enumerate_flows


class TestFlowCommon:
    def test_sigmoid_stable(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_masked_probability_full_mask_matches_plain(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        L = graph_model.num_layers
        masks = np.ones((L, g.num_edges + g.num_nodes))
        c = int(graph_model.predict(g)[0])
        p_masked = masked_probability_batch(graph_model, g, masks[None], c, None)[0]
        p_plain = float(graph_model.predict_proba(g)[0][c])
        assert p_masked == pytest.approx(p_plain)

    def test_flow_scores_to_edge_scores_shape(self, triangle_graph):
        fi = enumerate_flows(triangle_graph, 2, target=1)
        scores = np.random.default_rng(0).normal(size=fi.num_flows)
        edge_scores = flow_scores_to_edge_scores(fi, scores)
        assert edge_scores.shape == (triangle_graph.num_edges,)

    def test_unused_edges_score_zero(self, path_graph):
        fi = enumerate_flows(path_graph, 1, target=1)
        # only edge 0->1 carries flows at depth 1
        edge_scores = flow_scores_to_edge_scores(fi, np.ones(fi.num_flows))
        assert edge_scores[1] == 0.0  # edge 1->2 unused for target 1
        assert edge_scores[0] > 0.0


class TestFlowX:
    @pytest.fixture
    def flowx(self, node_model):
        return FlowX(node_model, samples=2, finetune_epochs=15, seed=0)

    def test_node_explanation(self, flowx, mini_ba_shapes, good_motif_node):
        e = flowx.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "flowx"
        assert e.flow_scores is not None
        assert e.flow_index is not None
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_graph_explanation(self, graph_model, mini_mutag):
        fx = FlowX(graph_model, samples=2, finetune_epochs=10, seed=0)
        g = mini_mutag.graphs[0]
        e = fx.explain(g)
        assert e.flow_scores.shape[0] == e.flow_index.num_flows

    def test_deterministic(self, node_model, mini_ba_shapes, good_motif_node):
        e1 = FlowX(node_model, samples=2, finetune_epochs=5, seed=1).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        e2 = FlowX(node_model, samples=2, finetune_epochs=5, seed=1).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_counterfactual_negates(self, node_model, mini_ba_shapes, good_motif_node):
        e = FlowX(node_model, samples=2, finetune_epochs=5, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node), mode="counterfactual")
        assert e.mode == "counterfactual"
        assert np.isfinite(e.flow_scores).all()

    def test_edges_per_sample_bound(self, node_model, mini_ba_shapes, good_motif_node):
        fx = FlowX(node_model, samples=2, edges_per_sample=5, finetune_epochs=5, seed=0)
        e = fx.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.isfinite(e.edge_scores).all()

    def test_meta_records_flow_count(self, flowx, mini_ba_shapes, good_motif_node):
        e = flowx.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.meta["num_flows"] == e.flow_index.num_flows


class TestGNNLRP:
    def test_rejects_gat(self, mini_ba_shapes):
        from repro.nn import build_model

        gat = build_model("gat", "node", mini_ba_shapes.num_features,
                          mini_ba_shapes.num_classes, rng=0)
        with pytest.raises(ExplainerError):
            GNNLRP(gat)

    def test_node_explanation(self, node_model, mini_ba_shapes, good_motif_node):
        e = GNNLRP(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "gnn_lrp"
        assert e.flow_scores is not None

    def test_graph_explanation(self, graph_model, mini_mutag):
        e = GNNLRP(graph_model).explain(mini_mutag.graphs[0])
        assert e.flow_scores.shape[0] == e.flow_index.num_flows

    def test_linear_model_exact_mixed_partial(self):
        """On a GCN with identity-ish behaviour the L-order term is exact.

        Build a 1-layer GCN without bias: the class score is linear in each
        layer-edge multiplier, so the finite-difference first derivative is
        exact and equals the message contribution.
        """
        from repro.graph import Graph
        from repro.nn import GNN

        g = Graph(edge_index=np.array([[0], [1]]), x=np.array([[1.0], [2.0]]))
        model = GNN("gcn", "node", 1, 4, 2, num_layers=1, rng=0)
        model.eval()
        e = GNNLRP(model, step=0.05).explain(g, target=ExplainTarget.node(1))
        # flows into node 1: edge 0->1 and self-loop 1->1
        assert e.flow_index.num_flows == 2
        assert np.isfinite(e.flow_scores).all()

    def test_relevance_conservation_tendency(self, node_model, mini_ba_shapes,
                                             good_motif_node):
        # decomposition methods: flow relevances are signed and non-trivial
        e = GNNLRP(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.flow_scores.std() > 0

    def test_deterministic(self, node_model, mini_ba_shapes, good_motif_node):
        e1 = GNNLRP(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        e2 = GNNLRP(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.allclose(e1.flow_scores, e2.flow_scores)

    def test_stencil_cache_reduces_evals(self, node_model, mini_ba_shapes,
                                         good_motif_node):
        e = GNNLRP(node_model).explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        full_cost = e.flow_index.num_flows * 2 ** node_model.num_layers
        assert e.meta["perf"]["stencil_evals"] <= full_cost
