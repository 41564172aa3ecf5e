"""Explanation serialization.

Explaining large instance sets is expensive; these helpers persist
:class:`~repro.explain.base.Explanation` objects to ``.npz`` so fidelity
sweeps, AUC evaluation and visualization can rerun without re-explaining.

Two formats:

* ``.npz`` (:func:`save_explanation` / :func:`load_explanation`) — the
  compressed on-disk archive format used by the batch harness. Meta is
  reduced to scalars and flat scalar dicts.
* JSON (:func:`explanation_to_jsonable` / :func:`explanation_from_jsonable`)
  — the serving daemon's wire format. The round-trip is **lossless**:
  every array (including array-valued meta diagnostics) is tagged with its
  dtype and shape, Python's ``json`` float encoding round-trips ``float64``
  exactly, and the reserved ``meta`` schema (``params`` / ``perf`` /
  ``trace_id``, see :class:`~repro.explain.base.Explanation`) survives
  verbatim. The only normalization: numpy scalars become Python scalars
  and tuples become lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ExplainerError
from ..flows import FlowIndex
from .base import Explanation

# load_explanation is the test suite's reader of saved explanations.
__all__ = ["save_explanation", "explanation_to_jsonable", "explanation_from_jsonable"]

_SCALAR_TYPES = (int, float, str, bool, type(None))

#: Tag marking an encoded ndarray in the JSON wire format.
_ARRAY_TAG = "__ndarray__"

#: Wire-format schema version (bumped on incompatible layout changes).
JSON_SCHEMA_VERSION = 1


def _jsonable_meta(meta: dict) -> dict:
    """Keep scalar meta values plus flat dicts of scalars.

    The reserved ``meta["params"]`` / ``meta["perf"]`` sub-dicts (see
    :class:`~repro.explain.base.Explanation`) round-trip; array-valued
    diagnostics (layer weights, selected flows) are dropped as before.
    """
    out = {}
    for k, v in meta.items():
        if isinstance(v, _SCALAR_TYPES):
            out[k] = v
        elif isinstance(v, dict) and all(
                isinstance(sv, _SCALAR_TYPES) for sv in v.values()):
            out[k] = dict(v)
    return out


def _encode_value(value, where: str):
    """Recursively encode one meta/field value for the JSON wire format."""
    if isinstance(value, np.ndarray):
        return {_ARRAY_TAG: {"dtype": value.dtype.str,
                             "shape": list(value.shape),
                             "data": value.tolist()}}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _encode_value(v, f"{where}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, _SCALAR_TYPES):
        return value
    raise ExplainerError(
        f"cannot JSON-encode {where}: values of type {type(value).__name__} "
        "have no lossless wire representation")


def _decode_value(value):
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_TAG}:
            spec = value[_ARRAY_TAG]
            array = np.asarray(spec["data"], dtype=np.dtype(spec["dtype"]))
            return array.reshape(spec["shape"])
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def _encode_array(array: np.ndarray | None):
    return None if array is None else _encode_value(array, "array")


def _decode_array(value) -> np.ndarray | None:
    if value is None:
        return None
    decoded = _decode_value(value)
    if not isinstance(decoded, np.ndarray):
        raise ExplainerError("wire payload field is not an encoded array")
    return decoded


def explanation_to_jsonable(explanation: Explanation) -> dict:
    """Encode an explanation as a JSON-serializable dict (lossless).

    The serving daemon's wire format: ``json.loads(json.dumps(...))`` of
    the result feeds :func:`explanation_from_jsonable` and reproduces the
    explanation exactly — array dtypes/shapes, the :class:`FlowIndex`,
    and the full ``meta`` dict including the reserved ``params`` /
    ``perf`` / ``trace_id`` schema and array-valued diagnostics.
    """
    payload: dict = {
        "schema": JSON_SCHEMA_VERSION,
        "method": explanation.method,
        "mode": explanation.mode,
        "target": (None if explanation.target is None
                   else int(explanation.target)),
        "predicted_class": int(explanation.predicted_class),
        "edge_scores": _encode_array(explanation.edge_scores),
        "layer_edge_scores": _encode_array(explanation.layer_edge_scores),
        "flow_scores": _encode_array(explanation.flow_scores),
        "context_node_ids": _encode_array(explanation.context_node_ids),
        "context_edge_positions": _encode_array(
            explanation.context_edge_positions),
        "flow_index": None,
        "meta": _encode_value(explanation.meta, "meta"),
    }
    if explanation.flow_index is not None:
        fi = explanation.flow_index
        payload["flow_index"] = {
            "nodes": _encode_array(fi.nodes),
            "layer_edges": _encode_array(fi.layer_edges),
            "num_layers": int(fi.num_layers),
            "num_edges": int(fi.num_edges),
            "num_nodes": int(fi.num_nodes),
            "target": None if fi.target is None else int(fi.target),
        }
    return payload


def explanation_from_jsonable(payload: dict) -> Explanation:
    """Rebuild an :class:`Explanation` from :func:`explanation_to_jsonable`."""
    if not isinstance(payload, dict):
        raise ExplainerError(
            f"explanation wire payload must be an object, got "
            f"{type(payload).__name__}")
    missing = {"method", "mode", "predicted_class", "edge_scores"} - set(payload)
    if missing:
        raise ExplainerError(
            f"explanation wire payload is missing {sorted(missing)}")
    schema = payload.get("schema", JSON_SCHEMA_VERSION)
    if schema != JSON_SCHEMA_VERSION:
        raise ExplainerError(
            f"unsupported explanation wire schema {schema!r} "
            f"(this build reads version {JSON_SCHEMA_VERSION})")
    flow_index = None
    if payload.get("flow_index") is not None:
        info = payload["flow_index"]
        flow_index = FlowIndex(
            nodes=_decode_array(info["nodes"]),
            layer_edges=_decode_array(info["layer_edges"]),
            num_layers=info["num_layers"],
            num_edges=info["num_edges"],
            num_nodes=info["num_nodes"],
            target=info["target"],
        )
    return Explanation(
        edge_scores=_decode_array(payload["edge_scores"]),
        predicted_class=payload["predicted_class"],
        method=payload["method"],
        mode=payload["mode"],
        target=payload.get("target"),
        layer_edge_scores=_decode_array(payload.get("layer_edge_scores")),
        flow_scores=_decode_array(payload.get("flow_scores")),
        flow_index=flow_index,
        context_node_ids=_decode_array(payload.get("context_node_ids")),
        context_edge_positions=_decode_array(
            payload.get("context_edge_positions")),
        meta=_decode_value(payload.get("meta", {})),
    )


def save_explanation(explanation: Explanation, path: str | Path) -> None:
    """Serialize an explanation (including its flow index) to ``.npz``."""
    payload: dict[str, np.ndarray] = {
        "edge_scores": explanation.edge_scores,
    }
    scalars = {
        "predicted_class": explanation.predicted_class,
        "method": explanation.method,
        "mode": explanation.mode,
        "target": explanation.target,
        "meta": _jsonable_meta(explanation.meta),
    }
    if explanation.layer_edge_scores is not None:
        payload["layer_edge_scores"] = explanation.layer_edge_scores
    if explanation.flow_scores is not None:
        payload["flow_scores"] = explanation.flow_scores
    if explanation.flow_index is not None:
        fi = explanation.flow_index
        payload["flow_nodes"] = fi.nodes
        payload["flow_layer_edges"] = fi.layer_edges
        scalars["flow_index"] = {
            "num_layers": fi.num_layers,
            "num_edges": fi.num_edges,
            "num_nodes": fi.num_nodes,
            "target": fi.target,
        }
    if explanation.context_node_ids is not None:
        payload["context_node_ids"] = explanation.context_node_ids
    if explanation.context_edge_positions is not None:
        payload["context_edge_positions"] = explanation.context_edge_positions
    payload["scalars_json"] = np.frombuffer(
        json.dumps(scalars).encode(), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **payload)


def load_explanation(path: str | Path) -> Explanation:
    """Load an explanation saved by :func:`save_explanation`."""
    path = Path(path)
    if not path.exists():
        raise ExplainerError(f"no such explanation file: {path}")
    with np.load(path, allow_pickle=False) as data:
        scalars = json.loads(bytes(data["scalars_json"]).decode())
        flow_index = None
        if "flow_nodes" in data:
            info = scalars["flow_index"]
            flow_index = FlowIndex(
                nodes=data["flow_nodes"],
                layer_edges=data["flow_layer_edges"],
                num_layers=info["num_layers"],
                num_edges=info["num_edges"],
                num_nodes=info["num_nodes"],
                target=info["target"],
            )
        return Explanation(
            edge_scores=data["edge_scores"].copy(),
            predicted_class=scalars["predicted_class"],
            method=scalars["method"],
            mode=scalars["mode"],
            target=scalars["target"],
            layer_edge_scores=(data["layer_edge_scores"].copy()
                               if "layer_edge_scores" in data else None),
            flow_scores=data["flow_scores"].copy() if "flow_scores" in data else None,
            flow_index=flow_index,
            context_node_ids=(data["context_node_ids"].copy()
                              if "context_node_ids" in data else None),
            context_edge_positions=(data["context_edge_positions"].copy()
                                    if "context_edge_positions" in data else None),
            meta=scalars.get("meta", {}),
        )
