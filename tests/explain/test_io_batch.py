"""Explanation serialization and batch explanation."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.eval import Instance
from repro.explain import (
    ExplainTarget,
    Explanation,
    RandomExplainer,
    explain_instances,
    make_explainer,
    save_explanation,
)
from repro.explain.io import load_explanation


class TestExplanationIO:
    def test_roundtrip_flow_explanation(self, node_model, mini_ba_shapes,
                                        good_motif_node, tmp_path):
        e = make_explainer("revelio", node_model, epochs=10).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        path = tmp_path / "e.npz"
        save_explanation(e, path)
        back = load_explanation(path)
        assert np.allclose(back.edge_scores, e.edge_scores)
        assert np.allclose(back.flow_scores, e.flow_scores)
        assert np.array_equal(back.flow_index.nodes, e.flow_index.nodes)
        assert back.method == "revelio"
        assert back.target == good_motif_node
        assert np.array_equal(back.context_edge_positions, e.context_edge_positions)

    def test_roundtrip_edge_explanation(self, graph_model, mini_mutag, tmp_path):
        e = RandomExplainer(graph_model, seed=0).explain(mini_mutag.graphs[0])
        save_explanation(e, tmp_path / "e.npz")
        back = load_explanation(tmp_path / "e.npz")
        assert back.flow_scores is None
        assert back.flow_index is None
        assert np.allclose(back.edge_scores, e.edge_scores)

    def test_top_flows_work_after_reload(self, node_model, mini_ba_shapes,
                                         good_motif_node, tmp_path):
        e = make_explainer("revelio", node_model, epochs=10).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        save_explanation(e, tmp_path / "e.npz")
        back = load_explanation(tmp_path / "e.npz")
        assert back.top_flows(3) == e.top_flows(3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExplainerError):
            load_explanation(tmp_path / "nope.npz")

    def test_scalar_meta_preserved(self, graph_model, mini_mutag, tmp_path):
        e = make_explainer("gnnexplainer", graph_model, epochs=5).explain(
            mini_mutag.graphs[0])
        save_explanation(e, tmp_path / "e.npz")
        back = load_explanation(tmp_path / "e.npz")
        assert back.meta["params"]["epochs"] == 5


class TestBatchExplain:
    def test_all_instances_explained(self, graph_model, mini_mutag):
        instances = [Instance(g) for g in mini_mutag.graphs[:4]]
        result = explain_instances(RandomExplainer(graph_model, seed=0), instances)
        assert result.num_succeeded == 4
        assert result.num_failed == 0

    def test_progress_callback(self, graph_model, mini_mutag):
        instances = [Instance(g) for g in mini_mutag.graphs[:3]]
        seen = []
        explain_instances(RandomExplainer(graph_model, seed=0), instances,
                          progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_save_dir(self, graph_model, mini_mutag, tmp_path):
        instances = [Instance(g) for g in mini_mutag.graphs[:2]]
        explain_instances(RandomExplainer(graph_model, seed=0), instances,
                          save_dir=tmp_path / "out")
        files = sorted((tmp_path / "out").glob("*.npz"))
        assert len(files) == 2
        assert load_explanation(files[0]).method == "random"

    def test_failure_captured(self, node_model, mini_ba_shapes):
        from repro.core import Revelio

        # max_flows=1 forces a FlowError on real instances
        explainer = Revelio(node_model, epochs=2, max_flows=1)
        instances = [Instance(mini_ba_shapes.graph,
                               ExplainTarget.node(int(mini_ba_shapes.motif_nodes[0])))]
        result = explain_instances(explainer, instances)
        assert result.num_failed == 1
        assert "FlowError" in result.failures[0][1]

    def test_non_repro_exception_captured(self, graph_model, mini_mutag):
        """Stray numpy-level errors must not kill the batch (only the instance)."""

        class BlowingUpExplainer(RandomExplainer):
            calls = 0

            def explain(self, graph, target=None, mode="factual"):
                BlowingUpExplainer.calls += 1
                if BlowingUpExplainer.calls == 1:
                    raise FloatingPointError("overflow encountered in exp")
                return super().explain(graph, target=target, mode=mode)

        explainer = BlowingUpExplainer(graph_model, seed=0)
        instances = [Instance(g) for g in mini_mutag.graphs[:3]]
        result = explain_instances(explainer, instances)
        assert result.num_succeeded == 2
        assert result.num_failed == 1
        idx, message = result.failures[0]
        assert idx == 0
        assert message.startswith("FloatingPointError: overflow")
        assert "Traceback" in message  # truncated traceback recorded

    def test_non_repro_exception_raise_on_error(self, graph_model, mini_mutag):
        class BlowingUpExplainer(RandomExplainer):
            def explain(self, graph, target=None, mode="factual"):
                raise ValueError("bad value from numpy")

        instances = [Instance(mini_mutag.graphs[0])]
        with pytest.raises(ValueError):
            explain_instances(BlowingUpExplainer(graph_model, seed=0), instances,
                              raise_on_error=True)

    def test_raise_on_error(self, node_model, mini_ba_shapes):
        from repro.core import Revelio
        from repro.errors import FlowError

        explainer = Revelio(node_model, epochs=2, max_flows=1)
        instances = [Instance(mini_ba_shapes.graph,
                               ExplainTarget.node(int(mini_ba_shapes.motif_nodes[0])))]
        with pytest.raises(FlowError):
            explain_instances(explainer, instances, raise_on_error=True)

    def test_repr(self, graph_model, mini_mutag):
        result = explain_instances(RandomExplainer(graph_model, seed=0),
                                   [Instance(mini_mutag.graphs[0])])
        assert "succeeded=1" in repr(result)


class TestLayerEdgeScores:
    def test_flow_method_layer_extraction(self, node_model, mini_ba_shapes,
                                          good_motif_node):
        e = make_explainer("revelio", node_model, epochs=10).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        for l in (1, 2, 3):
            per_layer = e.edge_scores_at_layer(l)
            assert per_layer.shape == (e.flow_index.num_edges,)
            assert np.isfinite(per_layer).all()

    def test_bad_layer(self, node_model, mini_ba_shapes, good_motif_node):
        e = make_explainer("revelio", node_model, epochs=5).explain(
            mini_ba_shapes.graph, target=ExplainTarget.node(good_motif_node))
        with pytest.raises(ExplainerError):
            e.edge_scores_at_layer(0)
        with pytest.raises(ExplainerError):
            e.edge_scores_at_layer(9)

    def test_edge_method_has_no_layers(self, graph_model, mini_mutag):
        e = RandomExplainer(graph_model, seed=0).explain(mini_mutag.graphs[0])
        with pytest.raises(ExplainerError):
            e.edge_scores_at_layer(1)

    def test_graphmask_layer_extraction(self, graph_model, mini_mutag):
        from repro.explain import GraphMask

        gm = GraphMask(graph_model, epochs=5)
        gm.fit(gm.prepare_instances(mini_mutag.graphs[:2]))
        g = mini_mutag.graphs[3]
        e = gm.explain(g)
        per_layer = e.edge_scores_at_layer(1)
        assert per_layer.shape == (g.num_edges,)

    # The three mapping branches, pinned on synthetic explanations: a
    # flow_index truncates to its edge count, context_edge_positions
    # truncate to the context's data edges, and an unmappable shape
    # mismatch raises instead of silently truncating.
    def test_flow_index_branch_truncates_to_flow_edges(self):
        from repro.flows import FlowIndex

        fi = FlowIndex(nodes=np.zeros((1, 3), dtype=np.int64),
                       layer_edges=np.zeros((1, 2), dtype=np.int64),
                       num_layers=2, num_edges=4, num_nodes=3, target=0)
        e = Explanation(edge_scores=np.arange(4, dtype=float),
                        predicted_class=0, method="synthetic",
                        layer_edge_scores=np.arange(14, dtype=float).reshape(2, 7),
                        flow_index=fi)
        np.testing.assert_array_equal(e.edge_scores_at_layer(1),
                                      [0.0, 1.0, 2.0, 3.0])

    def test_context_positions_branch(self):
        e = Explanation(edge_scores=np.arange(10, dtype=float),
                        predicted_class=0, method="synthetic",
                        layer_edge_scores=np.arange(6, dtype=float).reshape(2, 3),
                        context_edge_positions=np.array([4, 7]))
        np.testing.assert_array_equal(e.edge_scores_at_layer(2), [3.0, 4.0])

    def test_unmappable_shape_mismatch_raises(self):
        e = Explanation(edge_scores=np.arange(10, dtype=float),
                        predicted_class=0, method="synthetic",
                        layer_edge_scores=np.arange(6, dtype=float).reshape(2, 3))
        with pytest.raises(ExplainerError, match="layer scores cover 3 edges"):
            e.edge_scores_at_layer(1)
