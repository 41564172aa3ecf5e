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
from typing import Sequence

from ..errors import RunnerError

__all__ = ["JobSpec", "ExperimentPlan", "plan_experiment"]

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


@dataclass
class JobSpec:
    """One self-contained unit of experiment work.

    ``kind`` selects the executor (see :mod:`repro.runner.execute`);
    ``payload`` must round-trip through plain JSON end to end.
    """

    id: str
    kind: str
    payload: dict = field(default_factory=dict)
    seed: int = 0
    retries: int | None = None      # None → pool default
    timeout: float | None = None    # None → pool default

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind,
                "payload": self.payload,
                "seed": self.seed, "retries": self.retries, "timeout": self.timeout}

    def digest(self) -> str:
        """Hash of what the job computes: its kind, payload and seed.

        Journaled with every record, so a resumed run can tell a record
        written for this exact job from one written under the same id by
        a different config (job ids do not encode alpha, effort, scale…).
        """
        body = {"kind": self.kind, "payload": self.payload, "seed": self.seed}
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(id=data["id"], kind=data["kind"],
                   payload=data.get("payload", {}),
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


def check_roster(artifact: str, methods: Sequence[str], config) -> None:
    """Raise unless ``artifact`` is plannable and every name in
    ``methods`` is one :func:`~repro.eval.experiments.method_config`
    knows (an :class:`~repro.errors.EvaluationError`): cheap, so callers
    run it before loading or training anything."""
    from ..eval.experiments import method_config

    if artifact not in ("fidelity", "auc", "runtime"):
        raise RunnerError(f"unplannable artifact {artifact!r}")
    for method in methods:
        method_config(method, config.resolved_effort(), alpha=config.alpha)


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
    from ..eval.experiments import ExperimentConfig, method_applicable

    config = config or ExperimentConfig()
    check_roster(artifact, methods, config)
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
