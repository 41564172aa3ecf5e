"""Model-randomization sanity checks."""

import numpy as np

from repro.core import Revelio
from repro.eval import model_randomization_check, randomize_model
from repro.explain import ExplainTarget, GradCAM, RandomExplainer


class TestRandomizeModel:
    def test_weights_replaced(self, node_model):
        twin = randomize_model(node_model, rng=0)
        originals = node_model.state_dict()
        for name, value in twin.state_dict().items():
            assert not np.allclose(value, originals[name])

    def test_original_untouched(self, node_model, mini_ba_shapes):
        before = node_model.predict_proba(mini_ba_shapes.graph)
        randomize_model(node_model, rng=0)
        after = node_model.predict_proba(mini_ba_shapes.graph)
        assert np.allclose(before, after)

    def test_randomized_predictions_differ(self, node_model, mini_ba_shapes):
        twin = randomize_model(node_model, rng=0)
        assert not np.allclose(node_model.predict_proba(mini_ba_shapes.graph),
                               twin.predict_proba(mini_ba_shapes.graph))

    def test_deterministic_with_seed(self, node_model):
        a = randomize_model(node_model, rng=7).state_dict()
        b = randomize_model(node_model, rng=7).state_dict()
        for name in a:
            assert np.allclose(a[name], b[name])


class TestModelRandomizationCheck:
    def test_revelio_tracks_model(self, node_model, mini_ba_shapes, good_motif_node):
        result = model_randomization_check(
            lambda m: Revelio(m, epochs=25, lr=0.05, seed=0),
            node_model, mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert -1.0 <= result.rank_correlation <= 1.0
        assert 0.0 <= result.top_k_overlap <= 1.0

    def test_gradient_method_tracks_model(self, node_model, mini_ba_shapes,
                                          good_motif_node):
        result = model_randomization_check(
            lambda m: GradCAM(m), node_model, mini_ba_shapes.graph,
            target=ExplainTarget.node(good_motif_node))
        assert np.isfinite(result.rank_correlation)

    def test_model_independent_method_fails(self, node_model, mini_ba_shapes,
                                            good_motif_node):
        """The random explainer with a fixed seed ignores the model entirely
        — the check must flag it (overlap 1.0 ≥ threshold)."""
        result = model_randomization_check(
            lambda m: RandomExplainer(m, seed=0),
            node_model, mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert result.top_k_overlap == 1.0
        assert not result.passes

    def test_repr_verdict(self, node_model, mini_ba_shapes, good_motif_node):
        result = model_randomization_check(
            lambda m: RandomExplainer(m, seed=0),
            node_model, mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert "FAIL" in repr(result)
