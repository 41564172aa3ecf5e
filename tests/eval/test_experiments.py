"""Experiment runners (one per paper artifact) on tiny configurations."""

import pytest

from repro.eval import (
    ExperimentConfig,
    Instance,
    build_instances,
    method_config,
    run_alpha_sensitivity,
    run_auc_experiment,
    run_explainer,
    run_fidelity_experiment,
    run_runtime_experiment,
    time_explainer,
)
from repro.eval.experiments import method_applicable
from repro.explain import ExplainTarget


TINY = ExperimentConfig(scale=0.12, num_instances=2, effort=0.05,
                        sparsities=(0.5, 0.8))


class TestMethodConfig:
    def test_effort_one_is_paper_settings(self):
        assert method_config("gnnexplainer", 1.0)["epochs"] == 500
        assert method_config("pgexplainer", 1.0)["lr"] == 3e-3
        assert method_config("graphmask", 1.0)["epochs"] == 200
        assert method_config("revelio", 1.0)["epochs"] == 500

    def test_effort_scales_with_floor(self):
        assert method_config("gnnexplainer", 0.01)["epochs"] == 25

    def test_alpha_forwarded(self):
        assert method_config("revelio", 1.0, alpha=0.7)["alpha"] == 0.7

    def test_unknown_method(self):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            method_config("lime", 1.0)


class TestApplicability:
    def test_gat_na_on_synthetics(self):
        assert not method_applicable("revelio", "ba_shapes", "gat")
        assert method_applicable("revelio", "cora", "gat")

    def test_gnn_lrp_not_on_gat(self):
        assert not method_applicable("gnn_lrp", "cora", "gat")

    def test_subgraphx_restricted(self):
        assert not method_applicable("subgraphx", "cora", "gcn")
        assert method_applicable("subgraphx", "mutag", "gcn")


class TestInstanceBuilding:
    def test_node_instances(self):
        from repro.datasets import tree_cycles

        ds = tree_cycles(scale=0.12, seed=0)
        instances = build_instances(ds, 5, seed=0)
        assert len(instances) == 5
        assert all(i.target is not None for i in instances)

    def test_graph_instances(self):
        from repro.datasets import mutag

        ds = mutag(scale=0.12, seed=0)
        instances = build_instances(ds, 4, seed=0)
        assert len(instances) == 4
        assert all(i.target is None for i in instances)

    def test_correct_only_filters(self, node_model, mini_ba_shapes):
        instances = build_instances(mini_ba_shapes, 3, seed=0, motif_only=True,
                                    correct_only=True, model=node_model)
        pred = node_model.predict(mini_ba_shapes.graph)
        for inst in instances:
            node = inst.target.node_id
            assert pred[node] == mini_ba_shapes.graph.y[node]

    def test_correct_only_requires_model(self, mini_ba_shapes):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            build_instances(mini_ba_shapes, 3, correct_only=True)


class TestRunners:
    def test_fidelity_runner(self):
        result = run_fidelity_experiment("tree_cycles", "gcn",
                                         ("gradcam", "revelio"), mode="factual",
                                         config=TINY)
        assert set(result["curves"]) == {"gradcam", "revelio"}
        assert set(result["curves"]["revelio"]) == {0.5, 0.8}
        assert len(result["rows"]) == 3  # header + 2 methods

    def test_fidelity_counterfactual(self):
        result = run_fidelity_experiment("tree_cycles", "gcn", ("revelio",),
                                         mode="counterfactual", config=TINY)
        assert "revelio" in result["curves"]

    def test_auc_runner(self):
        result = run_auc_experiment("tree_cycles", "gcn", ("gradcam", "revelio"),
                                    config=TINY)
        for method, auc in result["auc"].items():
            assert 0.0 <= auc <= 1.0

    def test_runtime_runner(self):
        result = run_runtime_experiment("tree_cycles", "gcn",
                                        ("gradcam", "gnnexplainer"), config=TINY)
        assert result["mean_seconds"]["gradcam"] < result["mean_seconds"]["gnnexplainer"]

    def test_alpha_runner(self):
        result = run_alpha_sensitivity("tree_cycles", "gcn", alphas=(0.0, 0.5),
                                       config=TINY)
        assert set(result["curves"]) == {0.0, 0.5}

    def test_inapplicable_methods_skipped(self):
        result = run_fidelity_experiment("tree_cycles", "gcn",
                                         ("subgraphx", "gradcam"), config=TINY)
        assert "subgraphx" in result["curves"]  # tree_cycles is allowed
        result2 = run_fidelity_experiment("tree_cycles", "gin",
                                          ("gradcam",), config=TINY)
        assert "gradcam" in result2["curves"]

    def test_run_explainer_group_method(self, node_model, mini_ba_shapes,
                                        good_motif_node):
        instances = [Instance(mini_ba_shapes.graph, ExplainTarget.node(good_motif_node))]
        result = run_explainer("pgexplainer", node_model, instances,
                               effort=0.02, seed=0)
        assert len(result.explanations) == 1

    def test_timing_result_stats(self, node_model, mini_ba_shapes, good_motif_node):
        from repro.explain import make_explainer

        expl = make_explainer("gradcam", node_model)
        instance = Instance(mini_ba_shapes.graph, ExplainTarget.node(good_motif_node))
        result = time_explainer(expl, [instance])
        assert result.mean_seconds > 0
        assert result.total_seconds >= result.mean_seconds
        assert "gradcam" in repr(result)
