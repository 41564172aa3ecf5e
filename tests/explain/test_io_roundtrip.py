"""Lossless JSON round-trip of explanations (the serving wire format).

Every explainer result shape — edge-only, layer-edge, flow-scored with a
FlowIndex, node-task with context arrays, graph-task — must survive
``explanation_to_jsonable`` → ``json.dumps`` → ``json.loads`` →
``explanation_from_jsonable`` exactly, including array dtypes and the
reserved ``meta`` schema.
"""

import json

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, make_explainer
from repro.explain.base import Explanation
from repro.explain.io import (
    JSON_SCHEMA_VERSION,
    explanation_from_jsonable,
    explanation_to_jsonable,
)


def roundtrip(explanation):
    payload = json.loads(json.dumps(explanation_to_jsonable(explanation)))
    return explanation_from_jsonable(payload)


def assert_array_equal_typed(left, right, where):
    if left is None or right is None:
        assert left is None and right is None, where
        return
    assert isinstance(right, np.ndarray), where
    assert left.dtype == right.dtype, f"{where}: {left.dtype} != {right.dtype}"
    assert left.shape == right.shape, where
    np.testing.assert_array_equal(left, right, err_msg=where)


def assert_value_equal(lv, rv, where):
    if isinstance(lv, np.ndarray):
        assert_array_equal_typed(lv, rv, where)
    elif isinstance(lv, dict):
        assert set(lv) == set(rv), where
        for key in lv:
            assert_value_equal(lv[key], rv[key], f"{where}.{key}")
    elif isinstance(lv, (list, tuple)):  # tuples normalize to lists
        assert isinstance(rv, list) and len(lv) == len(rv), where
        for i, (le, re) in enumerate(zip(lv, rv)):
            assert_value_equal(le, re, f"{where}[{i}]")
    else:
        assert lv == rv, where


def assert_meta_equal(left, right, where="meta"):
    assert_value_equal(left, right, where)


def assert_explanations_equal(original, restored):
    assert restored.method == original.method
    assert restored.mode == original.mode
    assert restored.target == original.target
    assert restored.predicted_class == original.predicted_class
    for field in ("edge_scores", "layer_edge_scores", "flow_scores",
                  "context_node_ids", "context_edge_positions"):
        assert_array_equal_typed(getattr(original, field),
                                 getattr(restored, field), field)
    if original.flow_index is None:
        assert restored.flow_index is None
    else:
        fi, ri = original.flow_index, restored.flow_index
        assert_array_equal_typed(fi.nodes, ri.nodes, "flow_index.nodes")
        assert_array_equal_typed(fi.layer_edges, ri.layer_edges,
                                 "flow_index.layer_edges")
        assert (fi.num_layers, fi.num_edges, fi.num_nodes, fi.target) == \
            (ri.num_layers, ri.num_edges, ri.num_nodes, ri.target)
    assert_meta_equal(original.meta, restored.meta)


#: (registry name, fast kwargs) — one entry per distinct result shape.
NODE_EXPLAINERS = [
    ("gradcam", {}),
    ("random", {}),
    ("flowx", {"samples": 2, "finetune_epochs": 0}),
    ("gnn_lrp", {}),
    ("revelio", {"epochs": 2}),
]


class TestExplainerRoundTrips:
    @pytest.mark.parametrize("name,kwargs", NODE_EXPLAINERS,
                             ids=[n for n, _ in NODE_EXPLAINERS])
    def test_node_task_shapes(self, node_model, mini_ba_shapes,
                              good_motif_node, name, kwargs):
        explainer = make_explainer(name, node_model, **kwargs)
        explanation = explainer.explain(mini_ba_shapes.graph,
                                        target=ExplainTarget.node(good_motif_node))
        assert_explanations_equal(explanation, roundtrip(explanation))

    def test_graph_task_shape(self, graph_model, mini_mutag):
        explainer = make_explainer("gradcam", graph_model)
        explanation = explainer.explain(mini_mutag.graphs[0])
        assert explanation.target is None
        assert_explanations_equal(explanation, roundtrip(explanation))

    def test_counterfactual_mode(self, node_model, mini_ba_shapes,
                                 good_motif_node):
        explainer = make_explainer("random", node_model)
        explanation = explainer.explain(mini_ba_shapes.graph,
                                        target=ExplainTarget.node(good_motif_node),
                                        mode="counterfactual")
        restored = roundtrip(explanation)
        assert restored.mode == "counterfactual"
        assert_explanations_equal(explanation, restored)


class TestSyntheticShapes:
    def _base(self, **overrides):
        fields = dict(
            edge_scores=np.array([0.5, 0.125, 0.25]),
            predicted_class=2, method="synthetic", mode="factual", target=7,
        )
        fields.update(overrides)
        return Explanation(**fields)

    def test_meta_with_arrays_and_nesting(self):
        explanation = self._base(meta={
            "params": {"epochs": 5, "lr": 0.01},
            "perf": {"explain_seconds": 0.25},
            "trace_id": "deadbeef",
            "layer_weights": np.arange(6, dtype=np.float32).reshape(2, 3),
            "selected": {"flows": np.array([3, 1, 4], dtype=np.int64),
                         "note": "nested"},
            "history": [np.array([1.0, 0.5]), {"epoch": 1}, 3, None],
        })
        restored = roundtrip(explanation)
        assert restored.meta["layer_weights"].dtype == np.float32
        assert restored.meta["selected"]["flows"].dtype == np.int64
        assert_explanations_equal(explanation, restored)

    def test_exact_float64_bits_survive(self):
        values = np.array([1 / 3, np.pi, 1e-300, -0.0, 7e100])
        restored = roundtrip(self._base(edge_scores=values))
        assert restored.edge_scores.tobytes() == values.tobytes()

    def test_numpy_scalar_meta_becomes_python_scalar(self):
        restored = roundtrip(self._base(
            meta={"alpha": np.float64(0.5), "k": np.int64(3)}))
        assert restored.meta == {"alpha": 0.5, "k": 3}
        assert isinstance(restored.meta["k"], int)

    def test_unencodable_meta_raises(self):
        explanation = self._base(meta={"model": object()})
        with pytest.raises(ExplainerError, match="meta.model"):
            explanation_to_jsonable(explanation)


class TestWirePayloadValidation:
    def test_non_dict_rejected(self):
        with pytest.raises(ExplainerError, match="must be an object"):
            explanation_from_jsonable("nope")

    def test_missing_required_keys_named(self):
        with pytest.raises(ExplainerError, match="edge_scores"):
            explanation_from_jsonable({"method": "x", "mode": "factual",
                                       "predicted_class": 0})

    def test_schema_version_mismatch_rejected(self):
        payload = explanation_to_jsonable(Explanation(
            edge_scores=np.array([1.0]), predicted_class=0,
            method="x", mode="factual", target=None))
        payload["schema"] = JSON_SCHEMA_VERSION + 1
        with pytest.raises(ExplainerError, match="schema"):
            explanation_from_jsonable(payload)

    def test_non_array_field_rejected(self):
        payload = explanation_to_jsonable(Explanation(
            edge_scores=np.array([1.0]), predicted_class=0,
            method="x", mode="factual", target=None))
        payload["edge_scores"] = [1.0]
        with pytest.raises(ExplainerError, match="not an encoded array"):
            explanation_from_jsonable(payload)
