"""repro.obs — observability: counters, hierarchical tracing, manifests.

Two halves, one subsystem:

* **Counters** (:mod:`repro.obs.counters`): the always-on global
  :data:`PERF` object counting forwards, enumerations and cache hits —
  answers *how much* work ran.
* **Tracer** (:mod:`repro.obs.trace`): opt-in nested spans over the hot
  paths (explain → context-extract → flow-enumerate → epoch →
  masked-forward) — answers *where the time went*.

Both ship deltas across the worker pool (``PERF.merge`` /
``TRACER.absorb``) so multiprocess runs stay truthful, and a run
manifest (:class:`~repro.obs.manifest.RunManifest`) ties a run's trace,
counters, config, seeds and dataset fingerprint into one reproduction
recipe.
"""

from . import names
from .counters import PERF, PerfCounters, perf_snapshot
from .manifest import build_manifest, dataset_fingerprint
from .session import TraceSession
from .summary import cache_summary, format_cache_summary, summarize_trace
from .trace import TRACER, NullSink, span

__all__ = [
    "names",
    "PERF",
    "PerfCounters",
    "perf_snapshot",
    "NullSink",
    "TRACER",
    "span",
    "build_manifest",
    "dataset_fingerprint",
    "TraceSession",
    "summarize_trace",
    "cache_summary",
    "format_cache_summary",
]
