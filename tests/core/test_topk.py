"""Top-k Revelio (the paper's future-work extension) and flow preselection."""

import numpy as np
import pytest

from repro.core import PRESELECT_STRATEGIES, Revelio, TopKRevelio, preselect_flows
from repro.core.preselect import gradient_flow_scores, walk_weight_flow_scores
from repro.errors import ExplainerError
from repro.explain import ExplainTarget
from repro.flows import enumerate_flows


class TestPreselection:
    @pytest.fixture
    def setup(self, node_model, mini_ba_shapes, good_motif_node):
        rev = Revelio(node_model)
        ctx = rev.node_context(mini_ba_shapes.graph, good_motif_node)
        fi = enumerate_flows(ctx.subgraph, node_model.num_layers,
                             target=ctx.local_target)
        c = rev.predicted_class(ctx.subgraph, target=ctx.local_target)
        return node_model, ctx, fi, c

    def test_gradient_scores_shape(self, setup):
        model, ctx, fi, c = setup
        scores = gradient_flow_scores(model, ctx.subgraph, fi, c, ctx.local_target)
        assert scores.shape == (fi.num_flows,)
        assert (scores >= 0).all()
        assert scores.max() > 0

    def test_walk_weight_scores(self, setup):
        _, ctx, fi, _ = setup
        scores = walk_weight_flow_scores(ctx.subgraph, fi)
        assert (scores > 0).all()
        assert scores.shape == (fi.num_flows,)

    @pytest.mark.parametrize("strategy", PRESELECT_STRATEGIES)
    def test_selection_size(self, setup, strategy):
        model, ctx, fi, c = setup
        k = min(5, fi.num_flows - 1)
        chosen = preselect_flows(model, ctx.subgraph, fi, k, c, ctx.local_target,
                                 strategy=strategy)
        assert chosen.shape == (k,)
        assert len(set(chosen.tolist())) == k

    def test_k_larger_than_flows_keeps_all(self, setup):
        model, ctx, fi, c = setup
        chosen = preselect_flows(model, ctx.subgraph, fi, 10**6, c, ctx.local_target)
        assert chosen.size == fi.num_flows

    def test_bad_strategy(self, setup):
        model, ctx, fi, c = setup
        with pytest.raises(ExplainerError):
            preselect_flows(model, ctx.subgraph, fi, 3, c, ctx.local_target,
                            strategy="psychic")

    def test_bad_k(self, setup):
        model, ctx, fi, c = setup
        with pytest.raises(ExplainerError):
            preselect_flows(model, ctx.subgraph, fi, 0, c, ctx.local_target)

    def test_gradient_beats_random_on_motif(self, node_model, mini_ba_shapes,
                                            good_motif_node):
        # gradient preselection should favour flows through the motif more
        # often than uniform choice does
        rev = Revelio(node_model)
        graph = mini_ba_shapes.graph
        ctx = rev.node_context(graph, good_motif_node)
        fi = enumerate_flows(ctx.subgraph, node_model.num_layers,
                             target=ctx.local_target)
        c = rev.predicted_class(ctx.subgraph, target=ctx.local_target)
        k = max(3, fi.num_flows // 4)
        grad_sel = preselect_flows(node_model, ctx.subgraph, fi, k, c,
                                   ctx.local_target, strategy="gradient")
        assert grad_sel.size == k


class TestTopKRevelio:
    def test_explains_with_small_k(self, node_model, mini_ba_shapes, good_motif_node):
        topk = TopKRevelio(node_model, k=8, epochs=30, seed=0)
        e = topk.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "revelio_topk"
        assert e.meta["params"]["k"] == 8
        assert e.meta["selected_flows"].shape == (8,)
        assert e.flow_scores.shape[0] == e.meta["num_flows"]

    def test_background_flows_share_one_score(self, node_model, mini_ba_shapes,
                                              good_motif_node):
        topk = TopKRevelio(node_model, k=4, epochs=20, seed=0)
        e = topk.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        selected = set(e.meta["selected_flows"].tolist())
        background = [f for f in range(e.meta["num_flows"]) if f not in selected]
        if len(background) > 1:
            values = e.flow_scores[background]
            assert np.allclose(values, values[0])

    def test_k_exceeding_flows_equivalent_to_full(self, node_model, mini_ba_shapes,
                                                  good_motif_node):
        topk = TopKRevelio(node_model, k=10**6, epochs=15, seed=0)
        e = topk.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.meta["params"]["k"] == e.meta["num_flows"]

    def test_counterfactual_mode(self, node_model, mini_ba_shapes, good_motif_node):
        topk = TopKRevelio(node_model, k=8, epochs=15, seed=0)
        e = topk.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node),
                         mode="counterfactual")
        assert e.mode == "counterfactual"
        assert np.isfinite(e.edge_scores).all()

    def test_graph_task(self, graph_model, mini_mutag):
        topk = TopKRevelio(graph_model, k=16, epochs=15, seed=0)
        e = topk.explain(mini_mutag.graphs[0])
        assert np.isfinite(e.edge_scores).all()

    def test_invalid_k(self, node_model):
        with pytest.raises(ExplainerError):
            TopKRevelio(node_model, k=0)

    def test_invalid_strategy(self, node_model):
        with pytest.raises(ExplainerError):
            TopKRevelio(node_model, strategy="bogus")

    def test_deterministic(self, node_model, mini_ba_shapes, good_motif_node):
        g = mini_ba_shapes.graph
        e1 = TopKRevelio(node_model, k=8, epochs=10, seed=2).explain(
            g, target=ExplainTarget.node(good_motif_node))
        e2 = TopKRevelio(node_model, k=8, epochs=10, seed=2).explain(
            g, target=ExplainTarget.node(good_motif_node))
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_quality_comparable_to_full(self, node_model, mini_ba_shapes,
                                        good_motif_node):
        """With k = half the flows, top-k should still find motif structure."""
        from repro.eval import explanation_auc

        graph = mini_ba_shapes.graph
        full = Revelio(node_model, epochs=60, lr=0.05, seed=0).explain(
            graph, target=ExplainTarget.node(good_motif_node))
        k = max(4, full.meta["num_flows"] // 2)
        pruned = TopKRevelio(node_model, k=k, epochs=60, lr=0.05, seed=0).explain(
            graph, target=ExplainTarget.node(good_motif_node))
        auc_full = explanation_auc(graph, full)
        auc_pruned = explanation_auc(graph, pruned)
        assert auc_pruned > 0.5  # well above chance
        assert auc_pruned >= auc_full - 0.25  # close to the full variant
