"""The daemon's compute plane: executing one coalesced micro-batch.

:class:`ExplainRuntime` is the ``batch_runner`` the coalescer drives. It
runs entirely on the single numerics thread: resolve the warm
``(model, dataset)`` pair, then answer each request with a **fresh**
explainer instance through the exact serial path
(:func:`repro.explain.batch.explain_instances` on a one-element list).

Fresh-per-request construction is the parity guarantee, not an
inefficiency: explainer objects consume RNG state across calls, so a
pooled instance would answer the same request differently depending on
what ran before it. Construction is cheap; the expensive state (model
weights, flow/context/explanation caches, sparse memos) is process-global
and stays warm regardless. Because the batch shares one model and one
graph, consecutive requests hit the warm caches and the engine's
``forward_masked_batch`` micro-batches inside each explainer call.

Observability: every micro-batch gets a RunManifest when ``obs_dir`` is
set (counter deltas + batch coordinates); every ``trace_every``-th batch
additionally records a full span trace under ``serve_batch`` so a loaded
daemon can be profiled by sampling instead of paying tracer overhead on
every request.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ServeError
from ..eval.fidelity import Instance
from ..explain import explain_instances, make_explainer
from ..explain.target import require_target
from ..obs import PERF, PerfCounters, TraceSession, build_manifest, span
from ..obs.names import SPAN_SERVE_BATCH
from .protocol import ExplainRequest, wire_explanation
from .state import ModelPool

__all__ = ["ExplainRuntime", "resolve_instance"]


def resolve_instance(dataset, request: ExplainRequest) -> Instance:
    """The evaluation instance a request addresses, validated.

    ``request.target`` is an :class:`ExplainTarget` or ``None``. Node
    tasks require an in-range node target; graph tasks take a graph index
    (default 0), explained without a node.
    """
    target = require_target(request.target, task=dataset.task,
                            where="ExplainRequest.target")
    if dataset.task == "node":
        if target is None:
            raise ServeError(
                f"dataset {request.dataset!r} is a node task; "
                '"target" ({"node": i}) is required')
        if target.kind != "node":
            raise ServeError(
                f"dataset {request.dataset!r} is a node task; cannot serve "
                f"a {target.kind} target")
        if not 0 <= target.node_id < dataset.graph.num_nodes:
            raise ServeError(
                f"target {target.node_id} out of range for "
                f"{request.dataset!r} ({dataset.graph.num_nodes} nodes)")
        return Instance(dataset.graph, target)
    if target is not None and target.kind != "graph":
        raise ServeError(
            f"dataset {request.dataset!r} is a graph task; cannot serve "
            f"a {target.kind} target")
    index = target.graph_index if target is not None else 0
    if not 0 <= index < len(dataset.graphs):
        raise ServeError(
            f"target {index} out of range for {request.dataset!r} "
            f"({len(dataset.graphs)} graphs)")
    return Instance(dataset.graphs[index], None)


class ExplainRuntime:
    """Synchronous micro-batch executor bound to a warm :class:`ModelPool`.

    Parameters
    ----------
    pool:
        Warm model/dataset pairs (lazily populated on first use).
    obs_dir:
        When set, each batch writes ``batch_NNNNNN.manifest.json`` here.
    trace_every:
        Record a span trace for every Nth batch (0 = never); traced
        batches write ``batch_NNNNNN.trace.jsonl`` plus the manifest the
        :class:`~repro.obs.session.TraceSession` produces.
    """

    def __init__(self, pool: ModelPool | None = None,
                 obs_dir: str | Path | None = None, trace_every: int = 0):
        self.pool = pool if pool is not None else ModelPool()
        self.obs_dir = Path(obs_dir) if obs_dir else None
        self.trace_every = max(0, trace_every)
        self.batches_run = 0

    # ------------------------------------------------------------------
    def __call__(self, requests: list[ExplainRequest]) -> list:
        """Execute one micro-batch (the coalescer's ``batch_runner``)."""
        if not requests:
            return []
        self.batches_run += 1
        sequence = self.batches_run
        meta = self._batch_meta(requests, sequence)
        traced = (self.obs_dir is not None and self.trace_every > 0
                  and sequence % self.trace_every == 0)
        if traced:
            trace_path = self.obs_dir / f"batch_{sequence:06d}.trace.jsonl"
            session = TraceSession(trace_path, run_meta=meta)
            with session:
                results = self._execute(requests)
            session.finalize()
            return results
        if self.obs_dir is not None:
            before = PERF.snapshot()
            results = self._execute(requests)
            manifest = build_manifest(
                trace_id="untraced", run_meta=meta,
                perf_delta=PerfCounters.delta(before, PERF.snapshot()),
                span_aggregates={})
            manifest.write(self.obs_dir / f"batch_{sequence:06d}.manifest.json")
            return results
        return self._execute(requests)

    def _batch_meta(self, requests: list[ExplainRequest], sequence: int) -> dict:
        head = requests[0]
        return {
            "kind": "serve_batch",
            "sequence": sequence,
            "dataset": head.dataset,
            "conv": head.conv,
            "explainer": head.explainer,
            "mode": head.mode,
            "scale": head.scale,
            "model_seed": head.model_seed,
            "params": dict(head.params),
            "batch_size": len(requests),
            "targets": [None if r.target is None else str(r.target)
                        for r in requests],
        }

    # ------------------------------------------------------------------
    def _execute(self, requests: list[ExplainRequest]) -> list:
        head = requests[0]
        with span(SPAN_SERVE_BATCH, batch_size=len(requests),
                  explainer=head.explainer, dataset=head.dataset):
            try:
                model, dataset = self.pool.get(head.model_key)
            except Exception as exc:  # bad model coordinates fail the batch,
                # uniformly: every request named the same model_key
                return [exc for _ in requests]
            results: list = []
            for request in requests:
                try:
                    results.append(self._explain_one(model, dataset, request))
                except Exception as exc:  # per-request failure only
                    results.append(exc)
            return results

    def _explain_one(self, model, dataset, request: ExplainRequest) -> dict:
        instance = resolve_instance(dataset, request)
        explainer = make_explainer(request.explainer, model,
                                   **request.params_dict())
        batch = explain_instances(explainer, [instance], mode=request.mode,
                                  raise_on_error=True)
        explanation = batch.explanations[0]
        payload, perf, trace_id = wire_explanation(explanation)
        return {"explanation": payload, "perf": perf, "trace_id": trace_id}
