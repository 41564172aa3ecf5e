"""The counter half of :mod:`repro.obs`: cheap, always-on event counters.

A single process-global :data:`PERF` counter object tracks how much work
the inference and flow layers actually do — model forwards (single vs.
batched), flow enumerations, cache hits — plus named wall-clock stage
accumulators. The counters cost a few attribute increments per event, so
they stay on permanently; :mod:`repro.eval.timing` snapshots them around
explainer runs and ``perfbench/`` reports them as exact work per run.

Counters answer *how much* work ran; the tracer in
:mod:`repro.obs.trace` answers *where the time went*. The worker pool
ships deltas of both with every job result (see
:meth:`PerfCounters.merge` and :meth:`repro.obs.trace.Tracer.absorb`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["PerfCounters", "PERF", "perf_snapshot", "reset_perf"]


class PerfCounters:
    """Monotonic event counters plus named stage timers.

    Attributes
    ----------
    single_forwards:
        Calls to :meth:`repro.nn.GNN.forward` (one model evaluation each).
    batched_forwards:
        Calls to :meth:`repro.nn.GNN.forward_masked_batch`.
    batched_rows:
        Total mask/feature rows evaluated across batched calls — the number
        of single forwards the batched engine replaced.
    flow_enumerations:
        Fresh :func:`repro.flows.enumerate_flows` runs.
    flow_cache_hits:
        Flow-index requests served from the cross-explainer cache.
    context_cache_hits:
        Node-context requests served from the cache.
    explanation_cache_hits:
        Whole ``explain_node`` results served from Revelio's memo (see
        :mod:`repro.core.revelio`).
    stage_seconds:
        Accumulated wall-clock per named stage (see :meth:`stage`).
    """

    __slots__ = (
        "single_forwards",
        "batched_forwards",
        "batched_rows",
        "flow_enumerations",
        "flow_cache_hits",
        "context_cache_hits",
        "explanation_cache_hits",
        "stage_seconds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and stage timer."""
        self.single_forwards = 0
        self.batched_forwards = 0
        self.batched_rows = 0
        self.flow_enumerations = 0
        self.flow_cache_hits = 0
        self.context_cache_hits = 0
        self.explanation_cache_hits = 0
        self.stage_seconds: dict[str, float] = {}

    def snapshot(self) -> dict:
        """Return a plain-dict copy of the current counter state."""
        return {
            "single_forwards": self.single_forwards,
            "batched_forwards": self.batched_forwards,
            "batched_rows": self.batched_rows,
            "flow_enumerations": self.flow_enumerations,
            "flow_cache_hits": self.flow_cache_hits,
            "context_cache_hits": self.context_cache_hits,
            "explanation_cache_hits": self.explanation_cache_hits,
            "stage_seconds": dict(self.stage_seconds),
        }

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Difference of two :meth:`snapshot` dicts (after − before)."""
        out = {
            k: after[k] - before[k]
            for k in after
            if k != "stage_seconds"
        }
        stages = {}
        for name, seconds in after["stage_seconds"].items():
            diff = seconds - before["stage_seconds"].get(name, 0.0)
            if diff > 0.0:
                stages[name] = diff
        out["stage_seconds"] = stages
        return out

    def merge(self, delta: dict) -> None:
        """Add a :meth:`delta` dict into these counters.

        The worker-pool protocol: each worker ships the delta of its own
        process-global counters with every job result and the parent
        merges it, so forwards/enumerations/cache hits and stage timings
        stay truthful under multiprocess runs. Also useful standalone for
        combining measurements from any out-of-process work.
        """
        for name in self.__slots__:
            if name == "stage_seconds":
                continue
            setattr(self, name, getattr(self, name) + int(delta.get(name, 0)))
        for stage, seconds in delta.get("stage_seconds", {}).items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str):
        """Accumulate the wall-clock of the enclosed block under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + time.perf_counter() - t0
            )

    def __repr__(self) -> str:
        return (
            f"PerfCounters(single={self.single_forwards}, "
            f"batched={self.batched_forwards} calls/{self.batched_rows} rows, "
            f"enumerations={self.flow_enumerations}, "
            f"cache_hits={self.flow_cache_hits})"
        )


PERF = PerfCounters()


def perf_snapshot() -> dict:
    """Snapshot of the global counters (convenience wrapper)."""
    return PERF.snapshot()


def reset_perf() -> None:
    """Reset the global counters (convenience wrapper)."""
    PERF.reset()
