"""Hierarchical tracing: nested spans with contextvar propagation.

A :class:`Span` measures one timed operation (an ``explain`` call, a flow
enumeration, one optimizer epoch, a batched masked forward); spans nest
through a :data:`contextvars.ContextVar`, so a span opened anywhere inside
another span's dynamic extent records it as its parent — including across
generator suspensions and threads started per-context.

Design constraints, in order:

1. **Disabled is (nearly) free.** The process-global :data:`TRACER` starts
   disabled with a :class:`NullSink`; the :func:`span` helper then returns
   a shared no-op context manager without allocating anything. The
   perf-smoke bench pins the instrumentation overhead of a disabled
   tracer below 5% of the hot workloads.
2. **Bounded memory.** Finished spans land in a bounded deque; overflow
   evicts the oldest record and counts it in :attr:`Tracer.dropped`.
   Per-``(method, stage)`` aggregates are updated for *every* finished
   span — never dropped — so manifests stay truthful even when the raw
   buffer wraps.
3. **Mergeable across processes.** Workers :meth:`Tracer.drain` their
   buffer and ship the records with each job result; the parent
   :meth:`Tracer.absorb`\\ s them into one trace (re-stamping the trace id
   and re-parenting orphan roots under the current span), mirroring
   ``PERF.merge`` for the counter half.

Span record schema (one JSON object per line in exported traces)::

    {"name": str, "trace_id": str, "span_id": str, "parent_id": str|null,
     "pid": int, "start": float, "seconds": float, "attrs": {...}}

``attrs["method"]`` is inherited from the parent span at start time, so
every span under an ``explain``/``job`` span can be grouped by method
without walking ancestry chains.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Protocol

# MemorySink and tracing() are the test suite's sink and harness, not
# public API.
__all__ = ["NullSink", "TRACER", "span"]

#: Default bound on buffered finished-span records per process.
DEFAULT_BUFFER_SPANS = 50_000

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_current_span", default=None)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class TraceSink(Protocol):
    """Destination for finished span records (called once per span)."""

    def emit(self, record: dict) -> None:
        """Receive one finished span record."""


class NullSink:
    """Discards every record — the default sink."""

    def emit(self, record: dict) -> None:
        pass


class MemorySink:
    """Collects records in a plain list (tests, ad-hoc inspection)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


class Span:
    """One in-flight or finished timed operation."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start", "seconds")

    def __init__(self, name: str, trace_id: str, parent_id: str | None,
                 attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = time.perf_counter()
        self.seconds = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes after the span has started."""
        self.attrs.update(attrs)
        return self

    def to_record(self) -> dict:
        return {"name": self.name, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "pid": os.getpid(), "start": self.start,
                "seconds": self.seconds, "attrs": self.attrs}

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds:.6f}s, attrs={self.attrs})"


class _NullSpanContext:
    """Shared no-op context manager returned by :func:`span` when disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Process-global span recorder with a bounded buffer and aggregates."""

    def __init__(self, sink: TraceSink | None = None,
                 max_buffer: int = DEFAULT_BUFFER_SPANS):
        self.enabled = False
        self.sink: TraceSink = sink if sink is not None else NullSink()
        self.trace_id: str | None = None
        self.dropped = 0
        self._buffer: deque[dict] = deque(maxlen=max_buffer)
        # (method|None, stage name) -> [count, seconds]; updated for every
        # finished span regardless of buffer eviction.
        self._aggregates: dict[tuple[str | None, str], list] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self, trace_id: str | None = None,
               sink: TraceSink | None = None) -> str:
        """Start recording; returns the active trace id."""
        if sink is not None:
            self.sink = sink
        self.trace_id = trace_id or _new_id()
        self.enabled = True
        return self.trace_id

    def disable(self) -> None:
        """Stop recording (buffered records are kept until :meth:`reset`)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop buffered records, aggregates and the drop counter."""
        with self._lock:
            self._buffer.clear()
            self._aggregates.clear()
            self.dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def start_span(self, name: str, attrs: dict):
        parent = _CURRENT.get()
        if "method" not in attrs and parent is not None \
                and "method" in parent.attrs:
            attrs["method"] = parent.attrs["method"]
        sp = Span(name, self.trace_id or "untraced",
                  parent.span_id if parent is not None else None, attrs)
        token = _CURRENT.set(sp)
        try:
            yield sp
        finally:
            sp.seconds = time.perf_counter() - sp.start
            _CURRENT.reset(token)
            self._record(sp.to_record())

    def _record(self, record: dict) -> None:
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self.dropped += 1
            self._buffer.append(record)
            key = (record["attrs"].get("method"), record["name"])
            agg = self._aggregates.get(key)
            if agg is None:
                self._aggregates[key] = [1, record["seconds"]]
            else:
                agg[0] += 1
                agg[1] += record["seconds"]
        self.sink.emit(record)

    # ------------------------------------------------------------------
    # cross-process merging (the runner protocol)
    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """Pop every buffered record: ``{"records": [...], "dropped": n}``.

        Workers call this after each job and ship the result with the
        job's result envelope; the drop counter resets with the buffer so
        each shipment reports only its own evictions.
        """
        with self._lock:
            records = list(self._buffer)
            self._buffer.clear()
            dropped, self.dropped = self.dropped, 0
        return {"records": records, "dropped": dropped}

    def absorb(self, shipment: dict | None) -> None:
        """Merge a worker's :meth:`drain` shipment into this tracer.

        Records are re-stamped with this tracer's trace id and orphan
        roots (``parent_id is None``) are re-parented under the current
        span, so a multiprocess run yields one connected trace.
        """
        if not shipment:
            return
        parent = _CURRENT.get()
        parent_id = parent.span_id if parent is not None else None
        with self._lock:
            self.dropped += int(shipment.get("dropped", 0))
        for record in shipment.get("records", ()):
            if self.trace_id is not None:
                record["trace_id"] = self.trace_id
            if record.get("parent_id") is None and parent_id is not None:
                record["parent_id"] = parent_id
            self._record(record)

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Copy of the buffered finished-span records (oldest first)."""
        with self._lock:
            return list(self._buffer)

    def aggregate_table(self) -> dict:
        """``{method: {stage: {"count": n, "seconds": s}}}`` totals.

        Spans with no ``method`` attribute are grouped under ``"-"``.
        Unlike :meth:`records`, aggregates survive buffer eviction.
        """
        out: dict[str, dict] = {}
        with self._lock:
            items = list(self._aggregates.items())
        for (method, stage), (count, seconds) in items:
            out.setdefault(method or "-", {})[stage] = {
                "count": count, "seconds": seconds,
            }
        return out

    def export_jsonl(self, path: str | Path) -> Path:
        """Write buffered records to ``path`` (one JSON object per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")
        return path


TRACER = Tracer()


def span(name: str, **attrs):
    """Open a span under the global tracer.

    The hot-path entry point: when tracing is disabled this returns a
    shared no-op context manager immediately. Use as::

        with span("flow_enumerate", num_layers=L) as sp:
            ...
            if sp is not None:
                sp.set(num_flows=index.num_flows)

    ``sp`` is ``None`` when tracing is disabled.
    """
    if not TRACER.enabled:
        return _NULL_SPAN
    return TRACER.start_span(name, attrs)


@contextmanager
def tracing(sink: TraceSink | None = None, trace_id: str | None = None):
    """Enable the global tracer for a block; restores the prior state.

    Yields the tracer. Primarily for tests and ad-hoc measurement; runs
    started through :class:`repro.obs.session.TraceSession` manage the
    tracer themselves.
    """
    prev_enabled = TRACER.enabled
    prev_sink = TRACER.sink
    prev_trace_id = TRACER.trace_id
    TRACER.enable(trace_id=trace_id, sink=sink)
    try:
        yield TRACER
    finally:
        TRACER.enabled = prev_enabled
        TRACER.sink = prev_sink
        TRACER.trace_id = prev_trace_id
