"""GNNExplainer's optional node-feature mask (original method's full form)."""

import numpy as np

from repro.explain import ExplainTarget, GNNExplainer


class TestFeatureMask:
    def test_disabled_by_default(self, graph_model, mini_mutag):
        e = GNNExplainer(graph_model, epochs=5).explain(mini_mutag.graphs[0])
        assert "feature_scores" not in e.meta

    def test_feature_scores_shape(self, graph_model, mini_mutag):
        e = GNNExplainer(graph_model, epochs=10, feature_mask=True).explain(
            mini_mutag.graphs[0])
        assert e.meta["feature_scores"].shape == (mini_mutag.num_features,)
        assert ((e.meta["feature_scores"] > 0)
                & (e.meta["feature_scores"] < 1)).all()

    def test_node_task_feature_mask(self, node_model, mini_ba_shapes,
                                    good_motif_node):
        e = GNNExplainer(node_model, epochs=10, feature_mask=True).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.meta["feature_scores"].shape == (mini_ba_shapes.num_features,)

    def test_edge_scores_still_produced(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[0]
        e = GNNExplainer(graph_model, epochs=10, feature_mask=True).explain(g)
        assert e.edge_scores.shape == (g.num_edges,)
        assert np.isfinite(e.edge_scores).all()

    def test_informative_feature_ranks_high(self):
        """A model that uses only feature 0 should get a high mask there."""
        from repro.graph import Graph
        from repro.nn import Trainer, build_model

        rng = np.random.default_rng(0)
        graphs = []
        for i in range(24):
            label = i % 2
            edges = np.array([[0, 1, 1, 2], [1, 0, 2, 1]])
            x = rng.normal(0, 0.05, size=(3, 4))
            x[:, 0] = label * 2.0  # only feature 0 carries the class
            graphs.append(Graph(edge_index=edges, x=x, y=label))
        model = build_model("gcn", "graph", 4, 2, hidden=8, rng=0)
        Trainer(model, epochs=60, patience=None).fit_graphs(graphs, rng=0)
        model.eval()

        g = graphs[1]  # a class-1 instance
        e = GNNExplainer(model, epochs=300, lr=0.05, feature_mask=True,
                         feature_size_weight=0.2).explain(g)
        scores = e.meta["feature_scores"]
        assert scores[0] == scores.max()
