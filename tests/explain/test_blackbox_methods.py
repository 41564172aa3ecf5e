"""PGM-Explainer, SubgraphX and the random baseline, plus construction-time
validation of every perturbation explainer's settings."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, FlowX, GNNLRP, PGMExplainer, RandomExplainer, SubgraphX


class TestPGMExplainer:
    def test_node_explanation(self, node_model, mini_ba_shapes, good_motif_node):
        e = PGMExplainer(node_model, num_samples=30, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)
        assert e.meta["params"]["num_samples"] == 30

    def test_graph_explanation(self, graph_model, mini_mutag):
        e = PGMExplainer(graph_model, num_samples=30, seed=0).explain(mini_mutag.graphs[0])
        assert np.isfinite(e.edge_scores).all()

    def test_deterministic(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[1]
        e1 = PGMExplainer(graph_model, num_samples=20, seed=2).explain(g)
        e2 = PGMExplainer(graph_model, num_samples=20, seed=2).explain(g)
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_mean_perturbation_mode(self, graph_model, mini_mutag):
        e = PGMExplainer(graph_model, num_samples=20, perturb_mode="mean",
                         seed=0).explain(mini_mutag.graphs[0])
        assert np.isfinite(e.edge_scores).all()

    def test_no_signal_gives_zero_scores(self, graph_model, mini_mutag):
        # with perturb_prob 0 nothing changes → all scores zero
        e = PGMExplainer(graph_model, num_samples=10, perturb_prob=0.0,
                         seed=0).explain(mini_mutag.graphs[0])
        assert np.allclose(e.edge_scores, 0.0)


class TestSubgraphX:
    @pytest.fixture
    def subx(self, graph_model):
        return SubgraphX(graph_model, rollouts=4, shapley_samples=2, min_nodes=4, seed=0)

    def test_graph_explanation(self, subx, mini_mutag):
        e = subx.explain(mini_mutag.graphs[0])
        assert e.method == "subgraphx"
        assert (e.edge_scores >= 0).all()

    def test_node_explanation_keeps_target(self, node_model, mini_ba_shapes,
                                           good_motif_node):
        subx = SubgraphX(node_model, rollouts=3, shapley_samples=2, seed=0)
        e = subx.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_graded_scores_for_ranking(self, subx, mini_mutag):
        e = subx.explain(mini_mutag.graphs[0])
        assert len(np.unique(e.edge_scores)) > 2  # not just 0/1

    def test_deterministic(self, graph_model, mini_mutag):
        g = mini_mutag.graphs[1]
        a = SubgraphX(graph_model, rollouts=3, shapley_samples=2, seed=5).explain(g)
        b = SubgraphX(graph_model, rollouts=3, shapley_samples=2, seed=5).explain(g)
        assert np.allclose(a.edge_scores, b.edge_scores)

    def test_connectivity_helper(self, graph_model):
        nbrs = [set([1]), set([0, 2]), set([1]), set()]
        assert SubgraphX._is_connected(frozenset({0, 1, 2}), nbrs)
        assert not SubgraphX._is_connected(frozenset({0, 2}), nbrs)


class TestRandomExplainer:
    def test_scores_uniform(self, node_model, mini_ba_shapes, good_motif_node):
        e = RandomExplainer(node_model, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        ctx = e.edge_scores[e.context_edge_positions]
        assert ((ctx >= 0) & (ctx <= 1)).all()

    def test_graph_task(self, graph_model, mini_mutag):
        e = RandomExplainer(graph_model, seed=0).explain(mini_mutag.graphs[0])
        assert e.edge_scores.shape == (mini_mutag.graphs[0].num_edges,)

    def test_different_calls_differ(self, graph_model, mini_mutag):
        expl = RandomExplainer(graph_model, seed=0)
        e1 = expl.explain(mini_mutag.graphs[0])
        e2 = expl.explain(mini_mutag.graphs[0])
        assert not np.allclose(e1.edge_scores, e2.edge_scores)


@pytest.mark.parametrize("cls, bad, field", [
    (SubgraphX, {"shapley_samples": 0}, "shapley_samples"),
    (SubgraphX, {"rollouts": 0}, "rollouts"),
    (SubgraphX, {"exploration": float("nan")}, "exploration"),
    (GNNLRP, {"step": 0.0}, "step"),
    (GNNLRP, {"step": -0.1}, "step"),
    (GNNLRP, {"step": float("inf")}, "step"),
    (PGMExplainer, {"perturb_mode": "zeros"}, "perturb_mode"),
    (PGMExplainer, {"num_samples": 0}, "num_samples"),
    (PGMExplainer, {"num_samples": 2.5}, "num_samples"),
    (PGMExplainer, {"perturb_prob": 1.5}, "perturb_prob"),
    (FlowX, {"samples": 0}, "samples"),
    (FlowX, {"samples": True}, "samples"),
    (FlowX, {"edges_per_sample": 0}, "edges_per_sample"),
    (FlowX, {"finetune_epochs": -1}, "finetune_epochs"),
    (FlowX, {"lr": 0.0}, "lr"),
])
def test_bad_perturbation_settings_rejected_at_construction(node_model, cls, bad, field):
    with pytest.raises(ExplainerError, match=field):
        cls(node_model, **bad)


def test_boundary_settings_stay_valid(node_model):
    FlowX(node_model, finetune_epochs=0, edges_per_sample=None)
    PGMExplainer(node_model, perturb_prob=1.0, perturb_mode="mean")
    SubgraphX(node_model, exploration=0.0)
