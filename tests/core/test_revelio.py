"""Revelio semantics: the mask transformation, objectives and outputs."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import Revelio
from repro.errors import ExplainerError
from repro.eval import Instance, fidelity_minus
from repro.explain import ExplainTarget
from repro.flows import enumerate_flows


@pytest.fixture
def revelio(node_model):
    return Revelio(node_model, epochs=60, lr=0.05, alpha=0.05, seed=0)


class TestConstruction:
    def test_bad_mask_activation(self, node_model):
        with pytest.raises(ExplainerError):
            Revelio(node_model, mask_activation="relu")

    def test_bad_layer_weight_activation(self, node_model):
        with pytest.raises(ExplainerError):
            Revelio(node_model, layer_weight_activation="square")

    def test_model_frozen_on_construction(self, node_model):
        Revelio(node_model)
        assert all(not p.requires_grad for p in node_model.parameters())


class TestMaskTransformation:
    """Unit checks on Eq. 4/5 independent of the learning loop."""

    def test_flow_scores_bounded_tanh(self, revelio):
        masks = Tensor(np.array([-10.0, 0.0, 10.0]))
        out = revelio.settings.flow_scores(masks).numpy()
        assert out[0] == pytest.approx(-1.0, abs=1e-4)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(1.0, abs=1e-4)

    def test_sigmoid_variant_positive(self, node_model):
        rev = Revelio(node_model, mask_activation="sigmoid")
        out = rev.settings.flow_scores(Tensor(np.array([-3.0, 3.0]))).numpy()
        assert (out > 0).all()

    def test_layer_scale_exp_positive(self, revelio):
        out = revelio.settings.layer_scale(Tensor(np.array([-2.0, 0.0, 2.0]))).numpy()
        assert (out > 0).all()
        assert out[1] == pytest.approx(1.0)

    def test_layer_scale_softplus(self, node_model):
        rev = Revelio(node_model, layer_weight_activation="softplus")
        out = rev.settings.layer_scale(Tensor(np.array([-5.0, 5.0]))).numpy()
        assert (out > 0).all()

    def test_layer_scale_identity_can_be_negative(self, node_model):
        rev = Revelio(node_model, layer_weight_activation="identity")
        out = rev.settings.layer_scale(Tensor(np.array([-1.0]))).numpy()
        assert out[0] == -1.0

    def test_layer_edge_scores_in_unit_interval(self, revelio, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        ctx = revelio.node_context(graph, int(mini_ba_shapes.motif_nodes[0]))
        fi = enumerate_flows(ctx.subgraph, 3, target=ctx.local_target)
        masks = Tensor(np.random.default_rng(0).normal(size=fi.num_flows))
        w = Tensor(np.zeros(3))
        omega = revelio.settings.layer_edge_scores(masks, w, fi).numpy()
        assert omega.shape == (3, fi.num_layer_edges)
        assert ((omega > 0) & (omega < 1)).all()

    def test_zero_masks_give_half_scores(self, revelio, mini_ba_shapes):
        # tanh(0)=0 accumulates to 0; sigmoid(0)=0.5 for every layer edge.
        graph = mini_ba_shapes.graph
        ctx = revelio.node_context(graph, int(mini_ba_shapes.motif_nodes[0]))
        fi = enumerate_flows(ctx.subgraph, 3, target=ctx.local_target)
        omega = revelio.settings.layer_edge_scores(
            Tensor(np.zeros(fi.num_flows)), Tensor(np.zeros(3)), fi
        ).numpy()
        assert np.allclose(omega, 0.5)

    def test_single_flow_mask_moves_its_edges_only(self, revelio, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        ctx = revelio.node_context(graph, int(mini_ba_shapes.motif_nodes[0]))
        fi = enumerate_flows(ctx.subgraph, 3, target=ctx.local_target)
        base = revelio.settings.layer_edge_scores(
            Tensor(np.zeros(fi.num_flows)), Tensor(np.zeros(3)), fi).numpy()
        bumped_masks = np.zeros(fi.num_flows)
        bumped_masks[0] = 2.0
        bumped = revelio.settings.layer_edge_scores(
            Tensor(bumped_masks), Tensor(np.zeros(3)), fi).numpy()
        changed = ~np.isclose(base, bumped)
        for l in range(3):
            expected = np.zeros(fi.num_layer_edges, dtype=bool)
            expected[fi.layer_edges[0, l]] = True
            assert np.array_equal(changed[l], expected)


class TestNodeExplanation:
    def test_output_structure(self, revelio, mini_ba_shapes, good_motif_node):
        graph = mini_ba_shapes.graph
        e = revelio.explain(graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "revelio"
        assert e.edge_scores.shape == (graph.num_edges,)
        assert e.flow_scores is not None
        assert e.flow_index is not None
        assert e.target == good_motif_node
        assert e.context_edge_positions is not None

    def test_flow_scores_in_tanh_range(self, revelio, mini_ba_shapes, good_motif_node):
        e = revelio.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert (np.abs(e.flow_scores) <= 1.0).all()

    def test_scores_zero_outside_context(self, revelio, mini_ba_shapes, good_motif_node):
        graph = mini_ba_shapes.graph
        e = revelio.explain(graph, target=ExplainTarget.node(good_motif_node))
        outside = np.setdiff1d(np.arange(graph.num_edges), e.context_edge_positions)
        assert np.allclose(e.edge_scores[outside], 0.0)

    def test_top_flows_end_at_target(self, revelio, mini_ba_shapes, good_motif_node):
        e = revelio.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        for seq, _ in e.top_flows(5):
            assert seq[-1] == good_motif_node

    def test_factual_objective_decreases(self, revelio, mini_ba_shapes, good_motif_node):
        e = revelio.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.isfinite(e.meta["final_loss"])

    def test_deterministic_given_seed(self, node_model, mini_ba_shapes, good_motif_node):
        e1 = Revelio(node_model, epochs=20, seed=3).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        e2 = Revelio(node_model, epochs=20, seed=3).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_requires_target_for_node_model(self, revelio, mini_ba_shapes):
        with pytest.raises(ExplainerError):
            revelio.explain(mini_ba_shapes.graph)

    def test_bad_mode(self, revelio, mini_ba_shapes, good_motif_node):
        with pytest.raises(ExplainerError):
            revelio.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node), mode="why")


class TestCounterfactual:
    def test_scores_negated(self, node_model, mini_ba_shapes, good_motif_node):
        rev = Revelio(node_model, epochs=40, seed=0)
        e = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node),
                        mode="counterfactual")
        assert e.mode == "counterfactual"
        assert (np.abs(e.flow_scores) <= 1.0).all()

    def test_cf_learning_lowers_masked_probability(self, node_model, mini_ba_shapes,
                                                   good_motif_node):
        """Eq. (2) must drive the masked prediction away from the class.

        Compares P(c) under the learned counterfactual mask against P(c)
        under the all-0.5 initialization mask (tanh(0)=0 → σ(0)=0.5).
        """
        from repro.explain.flow_common import masked_probability_batch

        graph = mini_ba_shapes.graph
        rev = Revelio(node_model, epochs=80, lr=0.05, alpha=0.0, seed=0)
        ctx = rev.node_context(graph, good_motif_node)
        e = rev.explain(graph, target=ExplainTarget.node(good_motif_node), mode="counterfactual")
        # layer_edge_scores were inverted (1 - ω); undo to get the learned mask.
        learned = 1.0 - e.layer_edge_scores
        init = np.full_like(learned, 0.5)
        c = e.predicted_class
        p_learned, p_init = masked_probability_batch(
            node_model, ctx.subgraph, np.stack([learned, init]), c, ctx.local_target)
        assert p_learned < p_init


class TestGraphExplanation:
    def test_graph_task(self, graph_model, mini_mutag):
        rev = Revelio(graph_model, epochs=40, seed=0)
        g = next(g for g in mini_mutag.graphs if int(g.y) == 1)
        e = rev.explain(g)
        assert e.edge_scores.shape == (g.num_edges,)
        assert e.context_edge_positions is None
        assert e.flow_index.target is None

    def test_factual_keeps_prediction_on_motif_instance(self, graph_model, mini_mutag):
        # Explain a correctly-predicted class-1 molecule (its nitro motif is
        # a concrete structure the explanation can latch onto).
        rev = Revelio(graph_model, epochs=80, lr=0.05, alpha=0.01, seed=0)
        g = next(g for g in mini_mutag.graphs
                 if int(g.y) == 1 and graph_model.predict(g)[0] == 1)
        e = rev.explain(g)
        inst = [Instance(g, None)]
        fm = fidelity_minus(graph_model, inst, [e], 0.5)
        assert fm < 0.5  # keeping explanatory half retains most probability

    def test_factual_learning_raises_masked_probability(self, graph_model, mini_mutag):
        """Eq. (1) must raise P(c) relative to the all-0.5 init mask."""
        from repro.explain.flow_common import masked_probability_batch

        rev = Revelio(graph_model, epochs=80, lr=0.05, alpha=0.0, seed=0)
        g = next(g for g in mini_mutag.graphs
                 if int(g.y) == 1 and graph_model.predict(g)[0] == 1)
        e = rev.explain(g)
        c = e.predicted_class
        p_learned, p_init = masked_probability_batch(
            graph_model, g, np.stack([e.layer_edge_scores,
                                      np.full_like(e.layer_edge_scores, 0.5)]), c, None)
        assert p_learned > p_init


class TestEdgeTransfer:
    def test_edges_from_layers_averages_used_only(self):
        from repro.explain.flow_common import layer_scores_to_edge_scores
        from repro.flows import FlowIndex

        fi = FlowIndex(nodes=np.array([[0, 1, 2]]), layer_edges=np.array([[0, 1]]),
                       num_layers=2, num_edges=3, num_nodes=3)
        omega = np.array([[0.9, 0.1, 0.5, 0, 0, 0], [0.2, 0.8, 0.5, 0, 0, 0]])
        scores = layer_scores_to_edge_scores(omega, fi)
        # edge 0 used only at layer 1 → 0.9; edge 1 only layer 2 → 0.8
        assert scores[0] == pytest.approx(0.9)
        assert scores[1] == pytest.approx(0.8)
        assert scores[2] == 0.0  # unused everywhere


class TestAblations:
    @pytest.mark.parametrize("activation", ["exp", "softplus", "identity"])
    def test_layer_weight_variants_run(self, node_model, mini_ba_shapes,
                                       good_motif_node, activation):
        rev = Revelio(node_model, epochs=15, layer_weight_activation=activation, seed=0)
        e = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.isfinite(e.edge_scores).all()

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_mask_activation_variants_run(self, node_model, mini_ba_shapes,
                                          good_motif_node, activation):
        rev = Revelio(node_model, epochs=15, mask_activation=activation, seed=0)
        e = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert np.isfinite(e.edge_scores).all()


class TestExplanationMemo:
    """The whole-result memo behind the warm-cache speedup."""

    def test_repeat_explain_is_a_cache_hit(self, node_model, mini_ba_shapes,
                                           good_motif_node):
        from repro.core.revelio import clear_explanation_cache
        from repro.obs import PERF

        rev = Revelio(node_model, epochs=15, seed=0)
        clear_explanation_cache()
        first = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        hits_before = PERF.explanation_cache_hits
        second = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert PERF.explanation_cache_hits == hits_before + 1
        np.testing.assert_array_equal(first.edge_scores, second.edge_scores)
        np.testing.assert_array_equal(first.flow_scores, second.flow_scores)
        # Memo hits hand out copies: mutating one result must not leak
        # into the cache or other callers.
        assert second.edge_scores is not first.edge_scores
        second.edge_scores[:] = -1.0
        third = rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        np.testing.assert_array_equal(third.edge_scores, first.edge_scores)

    def test_disabled_context_bypasses_memo(self, node_model, mini_ba_shapes,
                                            good_motif_node):
        from repro.core.revelio import (clear_explanation_cache,
                                        explanation_cache_disabled)
        from repro.obs import PERF

        rev = Revelio(node_model, epochs=15, seed=0)
        clear_explanation_cache()
        rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        hits_before = PERF.explanation_cache_hits
        with explanation_cache_disabled():
            rev.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert PERF.explanation_cache_hits == hits_before

    def test_hyperparameters_separate_entries(self, node_model, mini_ba_shapes,
                                              good_motif_node):
        from repro.core.revelio import clear_explanation_cache
        from repro.obs import PERF

        clear_explanation_cache()
        Revelio(node_model, epochs=15, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        hits_before = PERF.explanation_cache_hits
        Revelio(node_model, epochs=16, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert PERF.explanation_cache_hits == hits_before

    def test_subclasses_do_not_collide(self, node_model, mini_ba_shapes,
                                       good_motif_node):
        """Regression: TopKRevelio must never be served a Revelio result."""
        from repro.core import TopKRevelio
        from repro.core.revelio import clear_explanation_cache

        clear_explanation_cache()
        Revelio(node_model, epochs=15, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        topk = TopKRevelio(node_model, k=4, epochs=15, seed=0)
        e = topk.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.method == "revelio_topk"
        assert "selected_flows" in e.meta
        # Two differently-configured TopK instances stay separate too.
        e8 = TopKRevelio(node_model, k=8, epochs=15, seed=0).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e8.meta["params"]["k"] == 8
