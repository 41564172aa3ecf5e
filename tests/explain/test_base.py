"""Explainer framework: contexts, Explanation helpers, registry."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import EXPLAINERS, ExplainTarget, Explanation, make_explainer
from repro.explain.base import Explainer
from repro.flows import enumerate_flows


class TestExplanation:
    def make(self, **over):
        defaults = dict(edge_scores=np.array([0.1, 0.9, 0.5, 0.3]),
                        predicted_class=1, method="test")
        defaults.update(over)
        return Explanation(**defaults)

    def test_top_edges_order(self):
        e = self.make()
        assert e.top_edges(2).tolist() == [1, 2]

    def test_top_edges_capped(self):
        e = self.make()
        assert e.top_edges(100).shape == (4,)

    def test_top_flows_requires_flow_scores(self):
        with pytest.raises(ExplainerError):
            self.make().top_flows(3)

    def test_top_flows_with_context_translation(self, triangle_graph):
        fi = enumerate_flows(triangle_graph, 2, target=1)
        scores = np.linspace(0, 1, fi.num_flows)
        ids = np.array([10, 11, 12])  # pretend original node ids
        e = self.make(flow_scores=scores, flow_index=fi, context_node_ids=ids)
        seq, score = e.top_flows(1)[0]
        assert all(v >= 10 for v in seq)
        assert score == pytest.approx(scores.max())

    def test_repr(self):
        assert "test" in repr(self.make())


class TestNodeContext:
    def test_context_target_mapped(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        node = int(mini_ba_shapes.motif_nodes[0])
        ctx = expl.node_context(mini_ba_shapes.graph, node)
        assert ctx.node_ids[ctx.local_target] == node

    def test_context_edges_subset(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        ctx = expl.node_context(mini_ba_shapes.graph, int(mini_ba_shapes.motif_nodes[0]))
        assert ctx.edge_positions.size == ctx.subgraph.num_edges
        assert ctx.edge_positions.max() < mini_ba_shapes.graph.num_edges

    def test_lift_edge_scores(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        graph = mini_ba_shapes.graph
        ctx = expl.node_context(graph, int(mini_ba_shapes.motif_nodes[0]))
        local = np.ones(ctx.subgraph.num_edges)
        full = expl.lift_edge_scores(ctx, local, graph.num_edges)
        assert full.sum() == ctx.subgraph.num_edges
        assert full.shape == (graph.num_edges,)

    def test_predicted_class_node(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        c = expl.predicted_class(mini_ba_shapes.graph, target=0)
        assert c == int(node_model.predict(mini_ba_shapes.graph)[0])


class TestDispatch:
    def test_node_model_requires_target(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        with pytest.raises(ExplainerError):
            expl.explain(mini_ba_shapes.graph)

    def test_bad_mode(self, node_model, mini_ba_shapes):
        expl = make_explainer("random", node_model)
        with pytest.raises(ExplainerError):
            expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(0), mode="maybe")

    def test_graph_model_ignores_target(self, graph_model, mini_mutag):
        expl = make_explainer("random", graph_model)
        e = expl.explain(mini_mutag.graphs[0], target=ExplainTarget.graph(5))
        assert e.target is None

    def test_base_class_abstract(self, node_model, mini_ba_shapes):
        expl = Explainer(node_model)
        with pytest.raises(NotImplementedError):
            expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(0))


class TestRegistry:
    def test_all_paper_baselines_registered(self):
        expected = {"gradcam", "deeplift", "gnnexplainer", "pgexplainer", "graphmask",
                    "pgm_explainer", "subgraphx", "gnn_lrp", "flowx", "random",
                    "relevant_walks"}
        assert set(EXPLAINERS) == expected

    def test_make_revelio_topk(self, node_model):
        from repro.core import TopKRevelio

        expl = make_explainer("revelio_topk", node_model, k=4)
        assert isinstance(expl, TopKRevelio)

    def test_make_revelio(self, node_model):
        from repro.core import Revelio

        assert isinstance(make_explainer("revelio", node_model), Revelio)

    def test_make_unknown(self, node_model):
        with pytest.raises(ExplainerError):
            make_explainer("lime", node_model)

    def test_hyphen_normalization(self, node_model):
        expl = make_explainer("GNN-LRP", node_model)
        assert expl.name == "gnn_lrp"

    def test_kwargs_forwarded(self, node_model):
        expl = make_explainer("gnnexplainer", node_model, epochs=7)
        assert expl.epochs == 7
