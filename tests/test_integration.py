"""End-to-end integration tests across subsystems.

Each test exercises a realistic multi-module pipeline: dataset → training
→ explanation → evaluation → presentation, on small but non-trivial
configurations.
"""

import numpy as np
import pytest

from repro import Revelio, enumerate_flows, load_dataset, make_explainer
from repro.analysis import agreement_matrix, flow_statistics, mass_through_nodes
from repro.eval import (
    Instance,
    explanation_auc,
    fidelity_minus,
    fidelity_plus,
)
from repro.explain import ExplainTarget
from repro.graph import add_noise_edges, perturb_features
from repro.nn import Trainer, build_model
from repro.viz import explanation_to_dot, format_flow_comparison, render_explanation


class TestNodeClassificationPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        ds = load_dataset("tree_cycles", scale=0.15, seed=1)
        model = build_model("gcn", "node", ds.num_features, ds.num_classes,
                            hidden=16, rng=1)
        Trainer(model, lr=0.02, weight_decay=0.0, epochs=200,
                patience=None).fit_node(ds.graph)
        model.eval()
        pred = model.predict(ds.graph)
        node = next(int(v) for v in ds.motif_nodes if pred[v] == ds.graph.y[v])
        return ds, model, node

    def test_full_revelio_pipeline(self, pipeline):
        ds, model, node = pipeline
        explanation = Revelio(model, epochs=80, lr=0.05, seed=0).explain(
            ds.graph, target=ExplainTarget.node(node))

        # evaluation
        inst = [Instance(ds.graph, ExplainTarget.node(node))]
        fm = fidelity_minus(model, inst, [explanation], 0.7)
        auc = explanation_auc(ds.graph, explanation)
        assert np.isfinite(fm)
        assert 0.0 <= auc <= 1.0

        # flow-level drill-down
        motif_nodes = set(ds.motif_nodes.tolist())
        mass = mass_through_nodes(explanation, motif_nodes)
        assert 0.0 <= mass <= 1.0

        # presentation
        text = render_explanation(ds.graph, explanation, k=6)
        assert "explanatory edges" in text
        dot = explanation_to_dot(ds.graph, explanation, k=6)
        assert dot.startswith("digraph")

    def test_three_flow_methods_agree_on_structure(self, pipeline):
        ds, model, node = pipeline
        explanations = []
        for name, cfg in (("gnn_lrp", {}),
                          ("flowx", {"samples": 2, "finetune_epochs": 20}),
                          ("revelio", {"epochs": 60})):
            explanations.append(
                make_explainer(name, model, seed=0, **cfg).explain(
                    ds.graph, target=ExplainTarget.node(node))
            )
        table = format_flow_comparison(explanations, k=5)
        assert table.count("[") >= 3
        matrix, names = agreement_matrix(explanations, k=10)
        assert matrix.shape == (3, 3)
        # flow methods on a clean motif instance should overlap at least some
        assert matrix[np.triu_indices(3, 1)].max() > 0.0

    def test_counterfactual_end_to_end(self, pipeline):
        ds, model, node = pipeline
        cf = Revelio(model, epochs=80, lr=0.05, seed=0).explain(
            ds.graph, target=ExplainTarget.node(node), mode="counterfactual")
        inst = [Instance(ds.graph, ExplainTarget.node(node))]
        fp = fidelity_plus(model, inst, [cf], 0.7)
        assert np.isfinite(fp)


class TestGraphClassificationPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        ds = load_dataset("mutag", scale=0.2, seed=2)
        model = build_model("gin", "graph", ds.num_features, ds.num_classes,
                            hidden=16, rng=2)
        Trainer(model, lr=0.02, weight_decay=0.0, epochs=80,
                patience=None).fit_graphs(ds.graphs, batch_size=64, rng=2)
        model.eval()
        g = next(g for g in ds.graphs if int(g.y) == 1 and model.predict(g)[0] == 1)
        return ds, model, g

    def test_flow_statistics_of_instance(self, pipeline):
        _, model, g = pipeline
        fi = enumerate_flows(g, model.num_layers)
        stats = flow_statistics(fi)
        assert stats.num_flows > g.num_edges  # flows outnumber edges
        assert stats.ambiguous_edge_fraction > 0  # Fig. 1's premise holds

    def test_explanation_recovers_motif_mass(self, pipeline):
        _, model, g = pipeline
        explanation = Revelio(model, epochs=120, lr=0.05, alpha=0.01, seed=0).explain(g)
        motif_atoms = {u for u, v in g.motif_edges} | {v for u, v in g.motif_edges}
        mass = mass_through_nodes(explanation, motif_atoms)
        assert mass > 0.0

    def test_robustness_to_input_perturbation(self, pipeline):
        """Explaining a noisy copy must not crash and must stay finite."""
        _, model, g = pipeline
        noisy = perturb_features(add_noise_edges(g, 2, rng=0), 0.05, rng=0)
        explanation = Revelio(model, epochs=30, seed=0).explain(noisy)
        assert np.isfinite(explanation.edge_scores).all()
        assert explanation.edge_scores.shape == (noisy.num_edges,)


class TestFailureInjection:
    def test_empty_context_raises_cleanly(self):
        """A node with no incoming paths still yields a valid explanation
        (its only flow is the self-loop chain)."""
        from repro.graph import Graph

        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((3, 4)),
                  y=np.array([0, 1, 0]),
                  train_mask=np.array([True, True, True]))
        model = build_model("gcn", "node", 4, 2, hidden=8, rng=0)
        model.eval()
        e = Revelio(model, epochs=5, seed=0).explain(g, target=ExplainTarget.node(2))
        assert e.flow_index.num_flows == 1  # 2 -> 2 -> 2 -> 2 only

    def test_flow_explosion_guard_end_to_end(self):
        from repro.errors import FlowError
        from repro.graph import Graph, erdos_renyi_edges

        edges = erdos_renyi_edges(30, 0.6, rng=0)
        g = Graph(edge_index=edges, x=np.ones((30, 4)))
        model = build_model("gcn", "node", 4, 2, hidden=8, rng=0)
        model.eval()
        with pytest.raises(FlowError):
            Revelio(model, max_flows=100, epochs=5).explain(g, target=ExplainTarget.node(0))

    def test_disconnected_graph_classification(self):
        from repro.graph import Graph

        g = Graph(edge_index=np.array([[0, 1], [1, 0]]), x=np.ones((5, 4)), y=0)
        model = build_model("gin", "graph", 4, 2, hidden=8, rng=0)
        model.eval()
        e = Revelio(model, epochs=5, seed=0).explain(g)
        assert np.isfinite(e.edge_scores).all()
