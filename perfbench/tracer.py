"""Per-layer tracing of the library, installed from outside.

The benchmark never edits the library. A traced run wraps a fixed set of
public class methods and registers a timing kernel backend through the
sparse kernel registry; every wrapped call becomes one span
``(name, start, end, parent, request)`` kept in memory and written out
when the run ends. Self time is a span's duration minus the part its
child spans cover. Spans opened inside a top-level ``Explainer.explain``
share that call's request id; everything else carries request ``-1``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: (span name, import path of the owner class, attribute) for every
#: wrapped public method. The span name is ``<layer>.<operation>``.
WRAPPED_METHODS = (
    ("explain.explain", "repro.explain.base", "Explainer", "explain"),
    ("explain.node_context", "repro.explain.base", "Explainer", "node_context"),
    ("explain.predicted_class", "repro.explain.base", "Explainer", "predicted_class"),
    ("core.explain_node", "repro.core.revelio", "Revelio", "explain_node"),
    ("flows.enumerate", "repro.flows.cache", "FlowCache", "get_flow_index"),
    ("flows.aggregate", "repro.flows.enumeration", "FlowIndex", "aggregate_scores"),
    ("nn.forward_graph", "repro.nn.models", "GNN", "forward_graph"),
    ("nn.forward_masked_batch", "repro.nn.models", "GNN", "forward_masked_batch"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor", "backward"),
    ("autograd.adam_step", "repro.autograd.optim", "Adam", "step"),
    ("serve.batch", "repro.serve.runtime", "ExplainRuntime", "__call__"),
)

#: Name of the timing backend registered in the kernel registry.
TIMED_BACKEND = "perfbench-timed"


def _explain_tag(explainer, graph, target=None, mode="factual"):
    return (explainer.name, getattr(target, "node_id", target))


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # [name, start, end, parent_index, request_id]
        self.spans: list[list] = []
        self.flows_enumerated = 0
        self.flows_num = 0
        self.batched_rows = 0
        #: request id -> (explainer name, target node) of its explain call
        self.request_tags: dict[int, tuple] = {}
        self._local = threading.local()
        self._next_request = 0
        self._restore: list[tuple[type, str, object]] = []
        self._backend_ctx = None

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tag=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        request = self.spans[parent][4] if parent >= 0 else -1
        if name == "explain.explain" and request < 0:
            request = self._next_request
            self._next_request += 1
            self.request_tags[request] = tag
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, request])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def timed(self, name: str, fn, tag=None):
        """``fn`` wrapped so that every call records a span ``name``.

        ``tag(*args, **kwargs)``, when given, labels the request a
        top-level call of ``fn`` opens.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, tag(*args, **kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every method in :data:`WRAPPED_METHODS`; time the kernels."""
        import importlib

        from repro.sparse import OPS, kernel, register_kernel, use_backend

        for name, module, cls_name, attr in WRAPPED_METHODS:
            owner = getattr(importlib.import_module(module), cls_name)
            original = owner.__dict__[attr]
            wrapped = self.timed(name, original,
                                 _explain_tag if name == "explain.explain" else None)
            if name == "flows.enumerate":
                wrapped = self._count_enumerations(wrapped)
            elif name == "nn.forward_masked_batch":
                wrapped = self._count_rows(wrapped)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        for op in OPS:
            register_kernel(op, TIMED_BACKEND, self.timed(f"sparse.{op}", kernel(op)))
        self._backend_ctx = use_backend(TIMED_BACKEND)
        self._backend_ctx.__enter__()

    def uninstall(self) -> None:
        """Put every wrapped method back and leave the timing backend."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._backend_ctx is not None:
            self._backend_ctx.__exit__(None, None, None)
            self._backend_ctx = None

    def _count_enumerations(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(cache, *args, **kwargs):
            misses = cache.cache_info()["misses"]
            index = wrapped(cache, *args, **kwargs)
            if not cache.enabled or cache.cache_info()["misses"] > misses:
                tracer.flows_enumerated += 1
                tracer.flows_num += index.num_flows
            return index
        return wrapper

    def _count_rows(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(model, graph, mask_stack=None, **kwargs):
            stack = mask_stack if mask_stack is not None else kwargs.get("x_stack")
            tracer.batched_rows += len(stack)
            return wrapped(model, graph, mask_stack, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Busy time, self time and calls per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["calls"] += 1
        return out

    def explain_windows(self) -> dict[tuple, list[tuple[float, float]]]:
        """``(explainer, node) -> [(start, end), ...]`` of top-level explains."""
        out: dict[tuple, list] = {}
        for name, start, end, parent, rid in self.spans:
            if name == "explain.explain" and (
                    parent < 0 or self.spans[parent][0] != "explain.explain"):
                out.setdefault(self.request_tags[rid], []).append((start, end))
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")
