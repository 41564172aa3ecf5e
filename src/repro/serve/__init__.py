"""repro.serve — explanation-as-a-service daemon.

A long-running ``repro serve`` process that keeps models, datasets and
the flow/explanation caches warm, and coalesces concurrent explain
requests into micro-batches:

* :mod:`.protocol` — JSON wire schema; the purity-derived
  ``model_key`` / ``batch_key`` / ``dedup_key`` hierarchy.
* :mod:`.coalescer` — bounded queues, linger loops, singleflight dedup,
  backpressure, graceful drain.
* :mod:`.runtime` — the numerics thread: warm model pool, fresh
  explainer per request (byte-parity with the serial path), one
  RunManifest per micro-batch.
* :mod:`.http` / :mod:`.app` — stdlib asyncio HTTP/1.1 server, routes,
  lifecycle.

See DESIGN.md §12 for the architecture and invariants.
"""

from .app import ServeApp, ServeConfig, run_server
from .coalescer import BackpressureError, Coalescer, DrainingError
from .protocol import (
    ExplainRequest,
    canonical_bytes,
    parse_explain_request,
    wire_explanation,
)
from .runtime import ExplainRuntime
from .state import ModelPool, ServeMetrics

__all__ = [
    "ServeApp",
    "ServeConfig",
    "run_server",
    "Coalescer",
    "BackpressureError",
    "DrainingError",
    "ExplainRequest",
    "parse_explain_request",
    "wire_explanation",
    "canonical_bytes",
    "ExplainRuntime",
    "ModelPool",
    "ServeMetrics",
]
