"""Trainer behaviour: learning, early stopping, evaluation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graph import Graph, sbm_edges
from repro.nn import Trainer, build_model


def separable_node_graph(seed=0):
    rng = np.random.default_rng(seed)
    edges = sbm_edges([15, 15], 0.4, 0.02, rng=rng)
    y = np.array([0] * 15 + [1] * 15)
    x = rng.normal(size=(30, 5)) + 2.0 * y[:, None]
    u = rng.random(30)
    return Graph(edge_index=edges, x=x, y=y, train_mask=u < 0.5,
                 val_mask=(u >= 0.5) & (u < 0.75), test_mask=u >= 0.75)


def separable_graphs(n=24, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        label = i % 2
        k = int(rng.integers(5, 9))
        edges = np.array([[j for j in range(k - 1)], [j + 1 for j in range(k - 1)]])
        edges = np.concatenate([edges, edges[::-1]], axis=1)
        x = rng.normal(size=(k, 4)) + 2.0 * label
        graphs.append(Graph(edge_index=edges, x=x, y=label))
    return graphs


class TestNodeTraining:
    def test_learns_separable_data(self):
        g = separable_node_graph()
        model = build_model("gcn", "node", 5, 2, hidden=16, rng=0)
        result = Trainer(model, epochs=80, patience=None).fit_node(g)
        assert result.test_acc > 0.8

    def test_history_recorded(self):
        g = separable_node_graph()
        model = build_model("gcn", "node", 5, 2, hidden=8, rng=0)
        result = Trainer(model, epochs=10, patience=None).fit_node(g)
        assert len(result.history) == 10
        assert {"epoch", "loss", "train_acc", "val_acc"} <= set(result.history[0])

    def test_early_stopping_triggers(self):
        g = separable_node_graph()
        model = build_model("gcn", "node", 5, 2, hidden=16, rng=0)
        result = Trainer(model, epochs=500, patience=5).fit_node(g)
        assert result.epochs_run < 500

    def test_best_state_restored(self):
        g = separable_node_graph()
        model = build_model("gcn", "node", 5, 2, hidden=16, rng=0)
        result = Trainer(model, epochs=60, patience=None).fit_node(g)
        # val accuracy of restored model equals best seen
        best_val = max(h["val_acc"] for h in result.history)
        assert result.val_acc == pytest.approx(best_val, abs=1e-9)

    def test_wrong_task_rejected(self):
        model = build_model("gcn", "graph", 5, 2, rng=0)
        with pytest.raises(ModelError):
            Trainer(model).fit_node(separable_node_graph())

    def test_missing_train_mask(self):
        g = separable_node_graph()
        g.train_mask = None
        model = build_model("gcn", "node", 5, 2, rng=0)
        with pytest.raises(ModelError):
            Trainer(model).fit_node(g)

    def test_missing_labels(self):
        g = separable_node_graph()
        g.y = None
        model = build_model("gcn", "node", 5, 2, rng=0)
        with pytest.raises(ModelError):
            Trainer(model).fit_node(g)



class TestGraphTraining:
    def test_learns_separable_graphs(self):
        graphs = separable_graphs()
        model = build_model("gin", "graph", 4, 2, hidden=16, rng=0)
        result = Trainer(model, epochs=40, patience=None).fit_graphs(graphs, rng=0)
        assert result.train_acc > 0.85

    def test_split_fractions(self):
        graphs = separable_graphs(n=30)
        model = build_model("gcn", "graph", 4, 2, hidden=8, rng=0)
        trainer = Trainer(model, epochs=2, patience=None)
        result = trainer.fit_graphs(graphs, val_fraction=0.2, test_fraction=0.2, rng=0)
        assert result.epochs_run == 2

    def test_wrong_task_rejected(self):
        model = build_model("gcn", "node", 4, 2, rng=0)
        with pytest.raises(ModelError):
            Trainer(model).fit_graphs(separable_graphs())

    def test_evaluate_empty_is_nan(self):
        model = build_model("gcn", "graph", 4, 2, rng=0)
        assert np.isnan(Trainer(model).evaluate_graphs([]))
