"""Declared registry of every span, stage and counter name in the tree.

Observability strings used to be bare literals at each call site: a
typo'd ``PERF.stage("masked_foward_batch")`` would silently open a fresh
stage bucket and a misspelt span name would fragment the trace summary —
neither fails a test. This module is the single source of truth the
call sites import from, and the :mod:`repro.checks` rules ``RPR030`` /
``RPR031`` statically verify that every string literal reaching
``span(...)`` / ``TRACER.start_span(...)`` / ``PERF.stage(...)`` and
every ``PERF.<attr>`` access resolves against it.

Adding a new span or stage is a two-line change: define the constant
here and add it to the matching frozenset; the lint pass then accepts it
everywhere.
"""

from __future__ import annotations

from .counters import PerfCounters

__all__ = [
    "SPAN_EXPLAIN",
    "SPAN_CONTEXT_EXTRACT",
    "SPAN_FLOW_ENUMERATE",
    "SPAN_MASKED_FORWARD_BATCH",
    "SPAN_OPTIMIZE",
    "SPAN_EPOCH",
    "SPAN_FIT",
    "SPAN_METHOD",
    "SPAN_JOB",
    "SPAN_EXPERIMENT",
    "SPAN_FIDELITY_SWEEP",
    "SPAN_SERVE_BATCH",
    "SPAN_NAMES",
    "STAGE_MASKED_FORWARD_BATCH",
    "STAGE_NAMES",
    "COUNTER_NAMES",
    "WORKLOAD_FLOWX",
    "WORKLOAD_GNN_LRP",
    "WORKLOAD_FIDELITY_CURVE",
    "WORKLOAD_REVELIO_WARM_CACHE",
    "WORKLOAD_OBS_OVERHEAD",
    "WORKLOAD_RUNNER_SCALING",
    "WORKLOAD_SCALING_LAW",
    "WORKLOAD_TRAINING_EPOCH",
    "WORKLOAD_SERVING_LOAD",
    "WORKLOAD_LINT_CACHE",
    "WORKLOAD_NAMES",
]

# ----------------------------------------------------------------------
# span names (repro.obs.trace.span / Tracer.start_span)
# ----------------------------------------------------------------------
#: Root span of a traced experiment run (opened by TraceSession).
SPAN_EXPERIMENT = "experiment"
#: One (method, dataset) cell of an experiment grid.
SPAN_METHOD = "method"
#: Group-level training of PGExplainer / GraphMask before explaining.
SPAN_FIT = "fit"
#: One sharded-runner job (inline or in a worker process).
SPAN_JOB = "job"
#: One Explainer.explain call.
SPAN_EXPLAIN = "explain"
#: L-hop neighborhood extraction around a target node.
SPAN_CONTEXT_EXTRACT = "context_extract"
#: One fresh repro.flows.enumerate_flows run.
SPAN_FLOW_ENUMERATE = "flow_enumerate"
#: One batched masked forward through the engine.
SPAN_MASKED_FORWARD_BATCH = "masked_forward_batch"
#: Revelio's whole mask-optimization loop.
SPAN_OPTIMIZE = "optimize"
#: One optimizer epoch inside the loop.
SPAN_EPOCH = "epoch"
#: One fidelity-over-sparsity sweep (Fig. 3 / Fig. 4 line).
SPAN_FIDELITY_SWEEP = "fidelity_sweep"
#: One coalesced micro-batch executed by the serving daemon.
SPAN_SERVE_BATCH = "serve_batch"

SPAN_NAMES: frozenset[str] = frozenset({
    SPAN_EXPERIMENT,
    SPAN_METHOD,
    SPAN_FIT,
    SPAN_JOB,
    SPAN_EXPLAIN,
    SPAN_CONTEXT_EXTRACT,
    SPAN_FLOW_ENUMERATE,
    SPAN_MASKED_FORWARD_BATCH,
    SPAN_OPTIMIZE,
    SPAN_EPOCH,
    SPAN_FIDELITY_SWEEP,
    SPAN_SERVE_BATCH,
})

# ----------------------------------------------------------------------
# stage names (PERF.stage wall-clock accumulators)
# ----------------------------------------------------------------------
STAGE_MASKED_FORWARD_BATCH = "masked_forward_batch"

STAGE_NAMES: frozenset[str] = frozenset({
    STAGE_MASKED_FORWARD_BATCH,
})

# ----------------------------------------------------------------------
# counter names (PERF integer attributes)
# ----------------------------------------------------------------------
#: Every integer counter on PerfCounters; derived from the class itself
#: so the registry can never drift from the runtime object.
COUNTER_NAMES: frozenset[str] = frozenset(
    name for name in PerfCounters.__slots__ if name != "stage_seconds"
)

# ----------------------------------------------------------------------
# benchmark workload names (BENCH_perf.json "workloads" keys)
# ----------------------------------------------------------------------
# The perf harness records each measured scenario under one of these keys;
# downstream tooling (CI artifact diffing, BENCH_history.jsonl, the README
# tables) joins on them, so a typo'd literal would silently fork a series.
# Rule ``RPR040`` verifies every ``results["..."] = ...`` in ``bench_*``
# modules against this registry.

#: FlowX sampled-Shapley batched-vs-serial comparison.
WORKLOAD_FLOWX = "flowx"
#: GNN-LRP finite-difference batched-vs-serial comparison.
WORKLOAD_GNN_LRP = "gnn_lrp"
#: Fidelity-over-sparsity sweep batched-vs-serial comparison.
WORKLOAD_FIDELITY_CURVE = "fidelity_curve"
#: Revelio cold vs. warm repeat-explain timing (cache effectiveness).
WORKLOAD_REVELIO_WARM_CACHE = "revelio_warm_cache"
#: Tracing/counter overhead measurement (obs on vs. off).
WORKLOAD_OBS_OVERHEAD = "obs_overhead"
#: Sharded-runner worker-count scaling curve.
WORKLOAD_RUNNER_SCALING = "runner_scaling"
#: Masked-forward time vs. graph size: CSR kernels vs. dense scatter.
WORKLOAD_SCALING_LAW = "scaling_law"
#: Full training epoch (forward+backward+step): plan-backed kernels vs.
#: the np.add.at dense-scatter path, with gradient parity.
WORKLOAD_TRAINING_EPOCH = "training_epoch"
#: Serving daemon under concurrent load: coalesced micro-batching vs.
#: per-request serial execution (throughput + p50/p99 latency).
WORKLOAD_SERVING_LOAD = "serving_load"
#: ``repro lint`` cold vs. warm run over the repository's own tree — the
#: warm run is served by the ``.repro_lint_cache.json`` parse cache.
WORKLOAD_LINT_CACHE = "lint_cache"

WORKLOAD_NAMES: frozenset[str] = frozenset({
    WORKLOAD_FLOWX,
    WORKLOAD_GNN_LRP,
    WORKLOAD_FIDELITY_CURVE,
    WORKLOAD_REVELIO_WARM_CACHE,
    WORKLOAD_OBS_OVERHEAD,
    WORKLOAD_RUNNER_SCALING,
    WORKLOAD_SCALING_LAW,
    WORKLOAD_TRAINING_EPOCH,
    WORKLOAD_SERVING_LOAD,
    WORKLOAD_LINT_CACHE,
})
