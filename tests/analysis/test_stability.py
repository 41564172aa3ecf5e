"""Stability analysis."""

import numpy as np
import pytest

from repro.analysis import seed_stability
from repro.core import Revelio
from repro.errors import EvaluationError
from repro.explain import ExplainTarget, GradCAM


class TestSeedStability:
    def test_deterministic_method_perfectly_stable(self, node_model, mini_ba_shapes,
                                                   good_motif_node):
        report = seed_stability(lambda seed: GradCAM(node_model, seed=seed),
                                mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node),
                                num_seeds=3)
        assert report.score_std == pytest.approx(0.0, abs=1e-12)
        assert report.mean_top_k_overlap == pytest.approx(1.0)

    def test_learned_method_reports_variance(self, node_model, mini_ba_shapes,
                                             good_motif_node):
        report = seed_stability(
            lambda seed: Revelio(node_model, epochs=20, seed=seed),
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node), num_seeds=3)
        assert report.num_runs == 3
        assert np.isfinite(report.mean_rank_correlation)
        assert 0.0 <= report.mean_top_k_overlap <= 1.0

    def test_needs_multiple_runs(self, node_model, mini_ba_shapes, good_motif_node):
        with pytest.raises(EvaluationError):
            seed_stability(lambda seed: GradCAM(node_model, seed=seed),
                           mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node), num_seeds=1)

    def test_repr(self, node_model, mini_ba_shapes, good_motif_node):
        report = seed_stability(lambda seed: GradCAM(node_model, seed=seed),
                                mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node),
                                num_seeds=2)
        assert "rank_corr" in repr(report)
