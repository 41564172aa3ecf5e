"""Experiment decomposition into serializable, order-independent jobs.

The paper's grid artifacts (fidelity curves, the AUC table, the runtime
table) are embarrassingly parallel across ``(method, instance-chunk)``
cells. :func:`plan_experiment` turns one artifact request into an
:class:`ExperimentPlan` whose :class:`JobSpec` work units are

* **serializable** — a ``JobSpec`` round-trips through a plain JSON dict,
  so it can cross process boundaries and live in a journal file;
* **stable** — job ids are a pure function of the experiment coordinates
  (``fidelity:mutag:gin:factual:flowx:003``), so a resumed run recognizes
  which units are already done;
* **order-independent** — every job carries its own RNG seed derived from
  the config seed and the job id (:func:`derive_seed`), so results do not
  depend on which worker runs a job or in what order jobs complete.

Chunking is deterministic and independent of the worker count: the same
plan is produced for ``workers=1`` and ``workers=8``, which is what makes
their aggregated results byte-identical. Group-fit methods (PGExplainer,
GraphMask — they train once over the whole instance set) are planned as a
single chunk; per-instance methods default to ``DEFAULT_CHUNKS`` chunks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..errors import RunnerError

if TYPE_CHECKING:
    from ..explain.target import ExplainTarget

__all__ = ["JobSpec", "ExperimentPlan", "derive_seed", "plan_experiment",
           "plan_sampled_explain", "GROUP_FIT_METHODS", "DEFAULT_CHUNKS"]

# Methods whose fit() trains one shared network over the instance group;
# splitting their instances across jobs would change semantics, so they
# always get exactly one chunk.
GROUP_FIT_METHODS = frozenset({"pgexplainer", "graphmask"})

# Per-instance methods are split into this many chunks (independent of the
# worker count, so plans — and therefore aggregates — never depend on it).
DEFAULT_CHUNKS = 4


def derive_seed(base_seed: int, job_id: str) -> int:
    """Stable per-job seed: hash of the config seed and the job id.

    Deterministic across processes and Python versions (sha256, not
    ``hash()``), and decoupled from execution order by construction.
    """
    digest = hashlib.sha256(f"{base_seed}:{job_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


#: Marker key wrapping an :class:`~repro.explain.target.ExplainTarget` in a
#: journaled payload. Targets are first-class values in job payloads but a
#: journal line is plain JSON, so ``to_dict`` wraps each one as
#: ``{"__explain_target__": target.to_wire()}`` and ``from_dict`` unwraps it.
TARGET_MARKER = "__explain_target__"


def _encode_payload_value(value):
    """JSON-encode one payload value, wrapping ExplainTargets recursively."""
    from ..explain.target import ExplainTarget

    if isinstance(value, ExplainTarget):
        return {TARGET_MARKER: value.to_wire()}
    if isinstance(value, (list, tuple)):
        return [_encode_payload_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_payload_value(v) for k, v in value.items()}
    return value


def _decode_payload_value(value):
    """Inverse of :func:`_encode_payload_value`."""
    if isinstance(value, dict):
        if set(value) == {TARGET_MARKER}:
            from ..explain.target import ExplainTarget

            return ExplainTarget.from_wire(value[TARGET_MARKER])
        return {k: _decode_payload_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_payload_value(v) for v in value]
    return value


@dataclass
class JobSpec:
    """One self-contained unit of experiment work.

    ``kind`` selects the executor (see :mod:`repro.runner.execute`);
    ``payload`` must round-trip through plain JSON end to end.
    :class:`~repro.explain.target.ExplainTarget` values (anywhere in the
    payload, including inside lists) are supported directly — ``to_dict``
    encodes them behind a marker key and ``from_dict`` restores them.
    """

    id: str
    kind: str
    payload: dict = field(default_factory=dict)
    seed: int = 0
    retries: int | None = None      # None → pool default
    timeout: float | None = None    # None → pool default

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind,
                "payload": _encode_payload_value(self.payload),
                "seed": self.seed, "retries": self.retries, "timeout": self.timeout}

    def digest(self) -> str:
        """Hash of what the job computes: its kind, payload and seed.

        Journaled with every record, so a resumed run can tell a record
        written for this exact job from one written under the same id by
        a different config (job ids do not encode alpha, effort, scale…).
        """
        body = {"kind": self.kind, "payload": _encode_payload_value(self.payload),
                "seed": self.seed}
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(id=data["id"], kind=data["kind"],
                   payload=_decode_payload_value(data.get("payload", {})),
                   seed=data.get("seed", 0),
                   retries=data.get("retries"), timeout=data.get("timeout"))


@dataclass
class ExperimentPlan:
    """A planned artifact: shared metadata plus the ordered job list.

    ``meta`` carries everything aggregation needs to build the artifact's
    rows (method roster order, sparsity grid, instance count); ``jobs`` is in deterministic plan order, which
    fixes the float summation order during aggregation.
    """

    artifact: str
    meta: dict
    jobs: list[JobSpec] = field(default_factory=list)

    def jobs_for_method(self, method: str) -> list[JobSpec]:
        return [j for j in self.jobs if j.payload.get("method") == method]


def _chunk_indices(n: int, num_chunks: int) -> list[list[int]]:
    """Split ``range(n)`` into at most ``num_chunks`` contiguous chunks."""
    num_chunks = max(1, min(num_chunks, n))
    size = math.ceil(n / num_chunks)
    return [list(range(i, min(i + size, n))) for i in range(0, n, size)]


def plan_experiment(artifact: str, dataset_name: str, conv: str,
                    methods: tuple[str, ...], mode: str = "factual",
                    config=None, num_instances: int | None = None,
                    chunks: int | None = None) -> ExperimentPlan:
    """Decompose one artifact into jobs.

    Every name in ``methods`` must be one :func:`method_config` knows: an
    unknown one raises :class:`~repro.errors.EvaluationError` here, before
    any job exists. Known methods inapplicable to the dataset/conv pair
    are left out of the plan.

    Parameters
    ----------
    artifact:
        ``"fidelity"``, ``"auc"`` or ``"runtime"``.
    num_instances:
        The *effective* instance count (after any ``correct_only``
        filtering) — the caller measures it once on the materialized
        instance list so every job agrees on the index space. Jobs still
        carry the *requested* count, which is what reproduces the same
        instance list in every process.
    chunks:
        Chunks per per-instance method (default :data:`DEFAULT_CHUNKS`).
        Must not depend on the worker count.
    """
    from ..eval.experiments import ExperimentConfig, method_applicable, method_config

    if artifact not in ("fidelity", "auc", "runtime"):
        raise RunnerError(f"unplannable artifact {artifact!r}")
    config = config or ExperimentConfig()
    for method in methods:  # an unknown method raises EvaluationError here
        method_config(method, config.resolved_effort(), alpha=config.alpha)
    chunks = chunks if chunks is not None else DEFAULT_CHUNKS
    requested = config.resolved_instances()
    n = num_instances if num_instances is not None else requested
    scale = config.scale
    if scale is None:
        from ..datasets import default_scale
        scale = default_scale()

    planned_methods = [m for m in methods if method_applicable(m, dataset_name, conv)]
    base_payload = {
        "artifact": artifact,
        "dataset": dataset_name,
        "conv": conv,
        "mode": mode,
        "scale": scale,
        "config_seed": config.seed,
        "num_instances": requested,
        "effort": config.resolved_effort(),
        "alpha": config.alpha,
        "sparsities": [float(s) for s in config.sparsities],
        "motif_only": artifact == "auc",
        "correct_only": artifact == "auc",
    }

    jobs: list[JobSpec] = []
    for method in planned_methods:
        method_chunks = 1 if method in GROUP_FIT_METHODS else chunks
        for ci, indices in enumerate(_chunk_indices(n, method_chunks)):
            job_id = f"{artifact}:{dataset_name}:{conv}:{mode}:{method}:{ci:03d}"
            payload = dict(base_payload, method=method, chunk=ci, instances=indices)
            jobs.append(JobSpec(id=job_id, kind=f"{artifact}_chunk", payload=payload,
                                seed=derive_seed(config.seed, job_id)))

    meta = dict(base_payload)
    meta["num_instances"] = n  # effective count (post-filtering), as reported
    meta["methods"] = planned_methods
    meta["chunks"] = chunks
    return ExperimentPlan(artifact=artifact, meta=meta, jobs=jobs)


def plan_sampled_explain(dataset_name: str, conv: str, explainer: str,
                         targets: "Sequence[ExplainTarget]", *, mode: str = "factual",
                         scale: float | None = None, config_seed: int = 0,
                         params: dict | None = None,
                         chunk_size: int = 8) -> ExperimentPlan:
    """Decompose a large-graph explanation sweep into streamed shards.

    Each job carries an explicit slice of ``targets``, node or link
    :class:`~repro.explain.target.ExplainTarget` values (a bare int raises
    :class:`~repro.errors.ExplainerError` naming ``ExplainTarget.node(i)``).
    The ``sampled_explain_chunk`` executor streams its
    shard one target at a time, and each explanation runs on the target's
    receptive field, so a worker's peak memory is bounded by the largest
    single receptive field, never by the shard. The job kind keeps its
    name because journals written by earlier runs record it.
    """
    from ..explain.target import require_target

    if not targets:
        raise RunnerError("plan_sampled_explain requires at least one target")
    if chunk_size < 1:
        raise RunnerError(f"chunk_size must be >= 1, got {chunk_size}")
    typed = [require_target(t, where="plan_sampled_explain") for t in targets]
    if any(t is None or t.kind == "graph" for t in typed):
        raise RunnerError("sampled explanation targets must be node or link targets")
    if scale is None:
        from ..datasets import default_scale
        scale = default_scale()

    base_payload = {
        "artifact": "sampled_explain",
        "dataset": dataset_name,
        "conv": conv,
        "explainer": explainer,
        "mode": mode,
        "scale": scale,
        "config_seed": config_seed,
        "params": dict(params or {}),
    }
    jobs: list[JobSpec] = []
    for ci in range(0, len(typed), chunk_size):
        shard = typed[ci:ci + chunk_size]
        index = ci // chunk_size
        job_id = f"sampled:{dataset_name}:{conv}:{explainer}:{mode}:{index:03d}"
        payload = dict(base_payload, chunk=index, targets=shard)
        jobs.append(JobSpec(id=job_id, kind="sampled_explain_chunk",
                            payload=payload,
                            seed=derive_seed(config_seed, job_id)))

    meta = dict(base_payload)
    meta["num_targets"] = len(typed)
    meta["chunk_size"] = chunk_size
    return ExperimentPlan(artifact="sampled_explain", meta=meta, jobs=jobs)
