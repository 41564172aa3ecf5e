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
    "SPAN_JOB",
    "SPAN_EXPERIMENT",
    "SPAN_FIDELITY_SWEEP",
    "SPAN_SERVE_BATCH",
    "SPAN_DATASET_LOAD",
    "SPAN_MODEL_TRAIN",
    "SPAN_NAMES",
    "STAGE_MASKED_FORWARD_BATCH",
    "STAGE_NAMES",
    "COUNTER_NAMES",
]

# ----------------------------------------------------------------------
# span names (repro.obs.trace.span / Tracer.start_span)
# ----------------------------------------------------------------------
#: Root span of a traced experiment run (opened by TraceSession).
SPAN_EXPERIMENT = "experiment"
#: Group-level training of PGExplainer / GraphMask before explaining.
SPAN_FIT = "fit"
#: One planned experiment job (inline or in a worker process).
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
#: One repro.datasets.load_dataset call (surrogate generation).
SPAN_DATASET_LOAD = "dataset_load"
#: Training a target model in repro.nn.zoo.get_model (a checkpoint miss).
SPAN_MODEL_TRAIN = "model_train"

SPAN_NAMES: frozenset[str] = frozenset({
    SPAN_EXPERIMENT,
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
    SPAN_DATASET_LOAD,
    SPAN_MODEL_TRAIN,
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
