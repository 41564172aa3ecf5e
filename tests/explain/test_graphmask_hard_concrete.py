"""GraphMask hard-concrete gates (the original paper's relaxation)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ExplainerError
from repro.explain import ExplainTarget, GraphMask


class TestHardConcreteGates:
    def test_unknown_gate_rejected(self, graph_model):
        with pytest.raises(ExplainerError):
            GraphMask(graph_model, gate="gumbel")

    def test_eval_gate_deterministic_and_bounded(self, graph_model):
        gm = GraphMask(graph_model, gate="hard_concrete", seed=0)
        logits = Tensor(np.linspace(-6, 6, 21))
        out1 = gm._hard_concrete(logits, training=False).numpy()
        out2 = gm._hard_concrete(logits, training=False).numpy()
        assert np.allclose(out1, out2)
        assert ((out1 >= 0) & (out1 <= 1)).all()

    def test_gates_reach_exact_zero_and_one(self, graph_model):
        gm = GraphMask(graph_model, gate="hard_concrete", seed=0)
        out = gm._hard_concrete(Tensor(np.array([-20.0, 20.0])), training=False).numpy()
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_training_gate_stochastic(self, graph_model):
        gm = GraphMask(graph_model, gate="hard_concrete", seed=0)
        logits = Tensor(np.zeros(50))
        a = gm._hard_concrete(logits, training=True).numpy()
        b = gm._hard_concrete(logits, training=True).numpy()
        assert not np.allclose(a, b)

    def test_l0_penalty_monotone(self, graph_model):
        gm = GraphMask(graph_model, gate="hard_concrete", seed=0)
        pen = gm._l0_penalty(Tensor(np.array([-5.0, 0.0, 5.0]))).numpy()
        assert pen[0] < pen[1] < pen[2]
        assert ((pen > 0) & (pen < 1)).all()

    def test_fit_and_explain_end_to_end(self, graph_model, mini_mutag):
        gm = GraphMask(graph_model, epochs=10, gate="hard_concrete", seed=0)
        gm.fit(gm.prepare_instances(mini_mutag.graphs[:3]))
        e = gm.explain(mini_mutag.graphs[4])
        assert ((e.edge_scores >= 0) & (e.edge_scores <= 1)).all()
        assert np.isfinite(e.edge_scores).all()

    def test_node_task_hard_concrete(self, node_model, mini_ba_shapes,
                                     good_motif_node):
        gm = GraphMask(node_model, epochs=10, gate="hard_concrete", seed=0)
        gm.fit(gm.prepare_instances(mini_ba_shapes.graph,
                                    targets=[ExplainTarget.node(good_motif_node)]))
        e = gm.explain(mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        assert e.edge_scores.shape == (mini_ba_shapes.graph.num_edges,)

    def test_sparsity_pressure_closes_gates(self, graph_model, mini_mutag):
        """Strong L0 pressure should drive the mean gate well below the
        weakly-regularized variant."""
        g = mini_mutag.graphs[4]

        def mean_gate(weight):
            gm = GraphMask(graph_model, epochs=40, gate="hard_concrete",
                           sparsity_weight=weight, seed=0)
            gm.fit(gm.prepare_instances(mini_mutag.graphs[:3]))
            e = gm.explain(g)
            return e.edge_scores.mean()

        assert mean_gate(5.0) < mean_gate(0.0) + 1e-9
