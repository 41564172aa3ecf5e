"""Top-k relevant-walk search (the polynomial-time flow explainer)."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, RelevantWalks
from repro.flows import enumerate_flows


class TestRelevantWalks:
    def test_returns_k_walks(self, node_model, mini_ba_shapes, good_motif_node):
        expl = RelevantWalks(node_model, k=7)
        e = expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.flow_index.num_flows <= 7
        assert e.flow_scores.shape[0] == e.flow_index.num_flows

    def test_walks_are_valid_flows(self, node_model, mini_ba_shapes, good_motif_node):
        expl = RelevantWalks(node_model, k=10)
        e = expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        ctx = expl.node_context(mini_ba_shapes.graph, good_motif_node)
        full = enumerate_flows(ctx.subgraph, node_model.num_layers,
                               target=ctx.local_target)
        all_seqs = {tuple(s) for s in full.nodes.tolist()}
        for seq in e.flow_index.nodes.tolist():
            assert tuple(seq) in all_seqs

    def test_scores_sorted_and_normalized(self, node_model, mini_ba_shapes,
                                          good_motif_node):
        e = RelevantWalks(node_model, k=8).explain(mini_ba_shapes.graph,
                                                   target=ExplainTarget.node(good_motif_node))
        assert e.flow_scores[0] == pytest.approx(1.0)
        assert (np.diff(e.flow_scores) <= 1e-12).all()
        assert (e.flow_scores > 0).all()

    def test_top_walk_is_global_argmax(self, node_model, mini_ba_shapes,
                                       good_motif_node):
        """The DP's best walk must match brute-force over all flows."""

        expl = RelevantWalks(node_model, k=1)
        ctx = expl.node_context(mini_ba_shapes.graph, good_motif_node)
        class_idx = expl.predicted_class(mini_ba_shapes.graph, target=good_motif_node)
        relevance = expl._layer_edge_relevance(ctx.subgraph, class_idx,
                                               ctx.local_target)
        log_w = np.where(relevance > 0, np.log(relevance + 1e-300), -30.0)

        full = enumerate_flows(ctx.subgraph, node_model.num_layers,
                               target=ctx.local_target)
        brute = np.zeros(full.num_flows)
        for l in range(full.num_layers):
            brute += log_w[l, full.layer_edges[:, l]]
        best_brute = brute.max()

        e = expl.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.meta["log_scores"][0] == pytest.approx(best_brute, abs=1e-9)

    def test_graph_task(self, graph_model, mini_mutag):
        e = RelevantWalks(graph_model, k=12).explain(mini_mutag.graphs[0])
        assert e.flow_index.num_flows <= 12
        assert np.isfinite(e.edge_scores).all()

    def test_cost_independent_of_flow_count(self, node_model, mini_ba_shapes):
        """The search never enumerates all flows — it runs fine where full
        enumeration would be large."""
        import time

        graph = mini_ba_shapes.graph
        expl = RelevantWalks(node_model, k=5)
        node = int(mini_ba_shapes.motif_nodes[0])
        t0 = time.perf_counter()
        e = expl.explain(graph, target=ExplainTarget.node(node))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        assert e.flow_index.num_flows <= 5

    def test_k_validation(self, node_model):
        with pytest.raises(ExplainerError):
            RelevantWalks(node_model, k=0)

    def test_deterministic(self, node_model, mini_ba_shapes, good_motif_node):
        g = mini_ba_shapes.graph
        e1 = RelevantWalks(node_model, k=5).explain(g, target=ExplainTarget.node(good_motif_node))
        e2 = RelevantWalks(node_model, k=5).explain(g, target=ExplainTarget.node(good_motif_node))
        assert np.array_equal(e1.flow_index.nodes, e2.flow_index.nodes)

    def test_registry_integration(self, node_model, mini_ba_shapes, good_motif_node):
        from repro.explain import make_explainer

        e = make_explainer("relevant_walks", node_model, k=3).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "relevant_walks"
