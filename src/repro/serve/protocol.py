"""Wire schema of the serving daemon: request parsing and response shaping.

The daemon speaks JSON over HTTP. A ``POST /explain`` body names the
model coordinates, the explainer and the instance; :func:`parse_explain_request`
validates it into a frozen :class:`ExplainRequest` whose three derived
keys drive the rest of the pipeline:

``model_key``
    which warm ``(model, dataset)`` pair serves it,
``batch_key``
    which coalescing queue it joins — requests sharing a batch key are
    legal to execute in one micro-batch,
``dedup_key``
    full determinism key. Explanations are pure functions of the graph,
    the frozen weights and the request hyperparameters (the invariant
    Revelio's ``EXPLANATION_CACHE`` documents), so two requests with
    equal dedup keys have byte-identical answers and share one inflight
    computation.

Responses separate the deterministic payload from the volatile one:
:func:`wire_explanation` hoists ``meta["perf"]`` / ``meta["trace_id"]``
out of the explanation so the ``explanation`` field of a response is a
pure function of the dedup key — :func:`canonical_bytes` of it is what
the parity tests compare against the serial path.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, fields

from ..datasets import DATASET_NAMES, dataset_task
from ..errors import ExplainerError, ServeError
from ..execution import ExecutionConfig
from ..explain.base import MODES, Explanation
from ..explain.io import explanation_to_jsonable
from ..explain.target import ExplainTarget

__all__ = [
    "ExplainRequest",
    "parse_explain_request",
    "wire_explanation",
    "canonical_bytes",
]

#: Convolution architectures the model zoo can serve.
CONVS = ("gcn", "gin", "gat")

#: Top-level request keys (used for did-you-mean hints on unknown keys).
_REQUEST_KEYS = ("dataset", "model", "explainer", "target", "mode", "scale",
                 "model_seed", "params", "execution", "timeout")

_SCALAR_TYPES = (int, float, str, bool, type(None))


@dataclass(frozen=True)
class ExplainRequest:
    """One validated ``POST /explain`` body.

    ``params`` is the explainer's keyword configuration as a sorted item
    tuple — hashable, so the derived keys below can key dicts directly.
    """

    dataset: str
    conv: str
    explainer: str
    target: ExplainTarget | None = None
    mode: str = "factual"
    scale: float | None = None
    model_seed: int = 0
    params: tuple[tuple[str, object], ...] = ()
    execution: ExecutionConfig = ExecutionConfig()

    @property
    def model_key(self) -> tuple:
        """Which warm model/dataset pair this request runs against."""
        return (self.dataset, self.conv, self.scale, self.model_seed)

    @property
    def batch_key(self) -> tuple:
        """Coalescing queue key: requests sharing it may share a micro-batch."""
        return self.model_key + (self.explainer, self.mode, self.params)

    @property
    def dedup_key(self) -> tuple:
        """Full determinism key: equal keys ⇒ byte-identical explanations."""
        return self.batch_key + (self.target,)

    def params_dict(self) -> dict:
        """The explainer kwargs as a plain dict (for ``make_explainer``)."""
        return dict(self.params)


def _reject_unknown(what: str, unknown: set, valid: tuple) -> None:
    if not unknown:
        return
    name = sorted(unknown)[0]
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else \
        f" (valid keys: {', '.join(sorted(valid))})"
    raise ServeError(f"unknown {what} key {name!r}{hint}")


def _require_str(payload: dict, key: str, choices: tuple | None = None) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ServeError(f"request field {key!r} must be a non-empty string")
    value = value.lower().replace("-", "_")
    if choices is not None and value not in choices:
        raise ServeError(
            f"unknown {key} {payload[key]!r}; available: {sorted(choices)}")
    return value


def _parse_execution(payload: dict) -> ExecutionConfig:
    """Fold the request's execution budget into an :class:`ExecutionConfig`.

    The serving path reuses the experiment drivers' execution object so a
    client states its per-request budget (``{"execution": {"timeout": 2.0}}``
    or the ``"timeout"`` shorthand) in the exact vocabulary the CLI uses.
    """
    spec = payload.get("execution") or {}
    if not isinstance(spec, dict):
        raise ServeError('request field "execution" must be an object')
    valid = tuple(f.name for f in fields(ExecutionConfig))
    _reject_unknown("execution", set(spec) - set(valid), valid)
    if "timeout" in payload:
        shorthand = payload["timeout"]
        if not isinstance(shorthand, (int, float)) or isinstance(shorthand, bool) \
                or shorthand <= 0:
            raise ServeError('request field "timeout" must be a positive number')
        spec = {**spec, "timeout": float(shorthand)}
    if spec.get("timeout") is not None:
        timeout = spec["timeout"]
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) \
                or timeout <= 0:
            raise ServeError("execution timeout must be a positive number")
        spec = {**spec, "timeout": float(timeout)}
    try:
        return ExecutionConfig(**spec)
    except TypeError as exc:
        raise ServeError(f"invalid execution config: {exc}") from exc


def _parse_target(value: object, dataset: str) -> ExplainTarget | None:
    """Decode the request's ``target`` field into an :class:`ExplainTarget`.

    Accepts the wire forms (``{"node": i}`` / ``{"link": [u, v]}`` /
    ``{"graph": j}`` / ``{"kind": ..., "ids": [...]}``) or null. A bare
    integer is rejected with the object form to send instead, chosen by
    the dataset's task.
    """
    if value is None:
        return None
    if isinstance(value, dict):
        try:
            return ExplainTarget.from_wire(value)
        except ExplainerError as exc:
            raise ServeError(f'invalid request field "target": {exc}') from exc
    if isinstance(value, int) and not isinstance(value, bool):
        kind = "node" if dataset_task(dataset) == "node" else "graph"
        raise ServeError(
            f'request field "target" must be a target object, not a bare '
            f'integer; send {{"{kind}": {value}}}')
    raise ServeError(
        'request field "target" must be a target object '
        '({"node": i} / {"link": [u, v]} / {"graph": j}) or null')


def parse_explain_request(payload: object) -> ExplainRequest:
    """Validate a decoded ``POST /explain`` body into an :class:`ExplainRequest`.

    Raises :class:`~repro.errors.ServeError` (→ HTTP 400) naming the
    offending field, with did-you-mean hints for misspelt keys.
    """
    if not isinstance(payload, dict):
        raise ServeError(
            f"explain request must be a JSON object, got "
            f"{type(payload).__name__}")
    missing = {"dataset", "model", "explainer"} - set(payload)
    if missing:
        raise ServeError(f"explain request is missing {sorted(missing)}")
    _reject_unknown("request", set(payload) - set(_REQUEST_KEYS), _REQUEST_KEYS)

    dataset = _require_str(payload, "dataset", DATASET_NAMES)
    conv = _require_str(payload, "model", CONVS)
    explainer = _require_str(payload, "explainer")
    mode = payload.get("mode", "factual")
    if mode not in MODES:
        raise ServeError(f"unknown mode {mode!r}; available: {list(MODES)}")

    target = _parse_target(payload.get("target"), dataset)

    scale = payload.get("scale")
    if scale is not None:
        # json.loads accepts NaN and Infinity; neither is a dataset size.
        if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
                or not math.isfinite(scale) or scale <= 0:
            raise ServeError('request field "scale" must be a positive finite number')
        scale = float(scale)

    model_seed = payload.get("model_seed", 0)
    if isinstance(model_seed, bool) or not isinstance(model_seed, int):
        raise ServeError('request field "model_seed" must be an integer')

    params = payload.get("params") or {}
    if not isinstance(params, dict):
        raise ServeError('request field "params" must be an object')
    for key, value in params.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise ServeError(
                f"explainer param {key!r} must be a JSON scalar, got "
                f"{type(value).__name__}")

    return ExplainRequest(
        dataset=dataset,
        conv=conv,
        explainer=explainer,
        target=target,
        mode=mode,
        scale=scale,
        model_seed=model_seed,
        params=tuple(sorted(params.items())),
        execution=_parse_execution(payload),
    )


def wire_explanation(explanation: Explanation) -> tuple[dict, dict | None, str | None]:
    """Split an explanation into ``(deterministic payload, perf, trace_id)``.

    ``meta["perf"]`` (wall-clock) and ``meta["trace_id"]`` vary run to run;
    hoisting them into the response envelope leaves the ``explanation``
    payload a pure function of the request's dedup key, which is the
    property the coalescer's dedup and the parity tests rely on.
    """
    payload = explanation_to_jsonable(explanation)
    meta = dict(payload.get("meta") or {})
    perf = meta.pop("perf", None)
    trace_id = meta.pop("trace_id", None)
    payload["meta"] = meta
    return payload, perf, trace_id


def canonical_bytes(payload: dict) -> bytes:
    """Canonical JSON encoding for byte-level parity comparison."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
