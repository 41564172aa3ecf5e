"""Wire schema: request validation and the deterministic response split."""

import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.explain import ExplainTarget
from repro.explain.base import Explanation
from repro.serve import canonical_bytes, parse_explain_request, wire_explanation


def body(**overrides):
    payload = {"dataset": "ba_shapes", "model": "gcn", "explainer": "flowx"}
    payload.update(overrides)
    return payload


class TestParseExplainRequest:
    def test_minimal_request_defaults(self):
        req = parse_explain_request(body(target={"node": 7}))
        assert req.dataset == "ba_shapes"
        assert req.conv == "gcn"
        assert req.explainer == "flowx"
        assert req.target == ExplainTarget.node(7)
        assert req.mode == "factual"
        assert req.scale is None
        assert req.model_seed == 0
        assert req.params == ()
        assert req.execution.timeout is None

    def test_target_wire_forms(self):
        assert parse_explain_request(body(target={"link": [1, 2]})).target \
            == ExplainTarget.link(1, 2)
        assert parse_explain_request(body(target={"graph": 3})).target \
            == ExplainTarget.graph(3)
        assert parse_explain_request(body()).target is None

    def test_bare_int_target_names_object_form(self):
        with pytest.raises(ServeError, match=r'send \{"node": 7\}'):
            parse_explain_request(body(target=7))
        with pytest.raises(ServeError, match=r'send \{"graph": 2\}'):
            parse_explain_request(body(dataset="mutag", model="gin", target=2))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0])
    def test_non_finite_or_non_positive_scale_rejected(self, scale):
        with pytest.raises(ServeError, match="positive finite"):
            parse_explain_request(body(target={"node": 1}, scale=scale))

    def test_nan_scale_from_the_wire_rejected(self):
        # json.loads accepts the NaN literal; it must not reach the runner.
        payload = json.loads('{"dataset": "ba_shapes", "model": "gcn", '
                             '"explainer": "flowx", "target": {"node": 1}, '
                             '"scale": NaN}')
        with pytest.raises(ServeError, match="positive finite"):
            parse_explain_request(payload)

    def test_sampled_field_is_an_unknown_key(self):
        # Every node explanation already runs on the target's receptive
        # field; there is no second path for a flag to select.
        with pytest.raises(ServeError, match="unknown request key 'sampled'"):
            parse_explain_request(body(target={"node": 1}, sampled=True))

    def test_names_normalized(self):
        req = parse_explain_request(body(dataset="BA-Shapes", model="GCN",
                                         explainer="Gnn-LRP"))
        assert req.dataset == "ba_shapes"
        assert req.conv == "gcn"
        assert req.explainer == "gnn_lrp"

    def test_key_hierarchy(self):
        a = parse_explain_request(body(target={"node": 1}, params={"samples": 4}))
        b = parse_explain_request(body(target={"node": 2}, params={"samples": 4}))
        c = parse_explain_request(body(target={"node": 1}, params={"samples": 4}))
        assert a.model_key == b.model_key
        assert a.batch_key == b.batch_key
        assert a.dedup_key != b.dedup_key
        assert a.dedup_key == c.dedup_key

    def test_params_order_insensitive(self):
        a = parse_explain_request(body(params={"samples": 4, "seed": 1}))
        c = parse_explain_request(body(params={"seed": 1, "samples": 4}))
        assert a.dedup_key == c.dedup_key

    def test_non_object_rejected(self):
        with pytest.raises(ServeError, match="JSON object"):
            parse_explain_request([1, 2])

    def test_missing_fields_named(self):
        with pytest.raises(ServeError, match="explainer"):
            parse_explain_request({"dataset": "ba_shapes", "model": "gcn"})

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(ServeError, match="did you mean 'explainer'"):
            parse_explain_request(body(explianer="flowx", explainer="flowx"))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ServeError, match="unknown dataset"):
            parse_explain_request(body(dataset="imagenet"))

    def test_unknown_conv_rejected(self):
        with pytest.raises(ServeError, match="unknown model"):
            parse_explain_request(body(model="transformer"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ServeError, match="unknown mode"):
            parse_explain_request(body(mode="casual"))

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ServeError, match="JSON scalar"):
            parse_explain_request(body(params={"weights": [1, 2]}))

    def test_bad_target_rejected(self):
        with pytest.raises(ServeError, match="target"):
            parse_explain_request(body(target="seven"))

    def test_bad_scale_rejected(self):
        with pytest.raises(ServeError, match="scale"):
            parse_explain_request(body(scale=-1.0))

    def test_timeout_shorthand(self):
        req = parse_explain_request(body(timeout=2.5))
        assert req.execution.timeout == 2.5

    def test_execution_budget(self):
        req = parse_explain_request(body(execution={"timeout": 1.5}))
        assert req.execution.timeout == 1.5

    def test_unknown_execution_key_hinted(self):
        with pytest.raises(ServeError, match="did you mean 'timeout'"):
            parse_explain_request(body(execution={"timeotu": 1.0}))

    def test_negative_timeout_rejected(self):
        with pytest.raises(ServeError, match="positive"):
            parse_explain_request(body(timeout=-1))


class TestWireExplanation:
    def _explanation(self):
        return Explanation(
            edge_scores=np.array([0.5, 0.25], dtype=np.float64),
            predicted_class=1, method="flowx", mode="factual", target=3,
            meta={"params": {"samples": 4},
                  "perf": {"explain_seconds": 0.123},
                  "trace_id": "abc123",
                  "note": "kept"},
        )

    def test_volatile_meta_hoisted(self):
        payload, perf, trace_id = wire_explanation(self._explanation())
        assert perf == {"explain_seconds": 0.123}
        assert trace_id == "abc123"
        assert "perf" not in payload["meta"]
        assert "trace_id" not in payload["meta"]
        assert payload["meta"]["note"] == "kept"
        assert payload["meta"]["params"] == {"samples": 4}

    def test_payload_is_deterministic_bytes(self):
        one = wire_explanation(self._explanation())[0]
        other_exp = self._explanation()
        other_exp.meta["perf"]["explain_seconds"] = 9.9  # volatile only
        other_exp.meta["trace_id"] = "different"
        other = wire_explanation(other_exp)[0]
        assert canonical_bytes(one) == canonical_bytes(other)

    def test_canonical_bytes_round_trips_as_json(self):
        payload = wire_explanation(self._explanation())[0]
        assert json.loads(canonical_bytes(payload)) == \
            json.loads(json.dumps(payload))
