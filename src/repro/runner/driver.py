"""High-level entry: plan → (pool | inline) → aggregate, with resume.

:func:`run_planned_experiment` is the one way the grid artifacts run;
:mod:`repro.eval.experiments`' drivers call it for every request. It
warms the dataset/model context once in the parent (so forked workers
inherit it and concurrent workers never race to train the same
checkpoint), plans the job grid, executes it fault-tolerantly and folds
the records into the artifact's result dict. When
``ExecutionConfig.trace`` is set, the whole run is wrapped in a
:class:`repro.obs.TraceSession`: worker spans are shipped back with each
result envelope and merged into one trace, and a ``RunManifest`` is
written next to the exported trace JSONL.
"""

from __future__ import annotations

from ..errors import EvaluationError
from ..execution import ExecutionConfig, resolve_trace_path
from .aggregate import aggregate_experiment
from .execute import experiment_context
from .plan import ExperimentPlan, check_roster, plan_experiment
from .pool import run_jobs

__all__ = ["run_planned_experiment", "plan_artifact"]


def plan_artifact(artifact: str, dataset_name: str, conv: str,
                  methods: tuple[str, ...], mode: str = "factual",
                  config=None) -> ExperimentPlan:
    """Warm the experiment context and plan the job grid.

    The method roster is checked first, so an unknown method raises
    before any model is loaded or trained. Materializing the instance list here (in the parent) pins the
    effective instance count — for AUC artifacts ``correct_only``
    filtering can return fewer instances than requested — and leaves a
    trained model in the zoo cache for workers to load. The dataset's
    content fingerprint is stashed in ``plan.meta`` for run manifests.
    """
    from ..eval.experiments import ExperimentConfig

    config = config or ExperimentConfig()
    check_roster(artifact, methods, config)
    scale = config.scale
    if scale is None:
        from ..datasets import default_scale
        scale = default_scale()
    probe = {"dataset": dataset_name, "conv": conv, "scale": scale,
             "config_seed": config.seed,
             "num_instances": config.resolved_instances(),
             "motif_only": artifact == "auc", "correct_only": artifact == "auc"}
    _, dataset, instances = experiment_context(probe)
    if not instances:
        raise EvaluationError(
            f"{dataset_name}/{conv}: no instances available for {artifact}")
    plan = plan_experiment(artifact, dataset_name, conv, methods, mode=mode,
                           config=config, num_instances=len(instances))
    from ..obs import dataset_fingerprint

    plan.meta["dataset_fingerprint"] = dataset_fingerprint(dataset)
    return plan


def run_planned_experiment(artifact: str, dataset_name: str, conv: str,
                           methods: tuple[str, ...], mode: str = "factual",
                           config=None,
                           execution: ExecutionConfig | None = None) -> dict:
    """Plan one artifact, run its jobs and aggregate the records.

    ``execution`` (default: inline, no journal, no trace) chooses only
    how the jobs run — ``jobs=1`` inline, ``jobs=N`` on the worker pool,
    ``resume=`` a journal whose finished jobs are reused — so the result
    depends on ``config`` alone. See :func:`repro.runner.pool.run_jobs`
    for the timeout/retry semantics.
    """
    execution = execution or ExecutionConfig()
    resume = execution.resume

    def execute() -> tuple[ExperimentPlan, dict]:
        plan = plan_artifact(artifact, dataset_name, conv, methods, mode=mode,
                             config=config)
        records = run_jobs(plan.jobs, workers=execution.workers,
                           timeout=execution.timeout, retries=execution.retries,
                           journal_path=resume, resume=resume is not None)
        return plan, aggregate_experiment(plan, records)

    trace_target = resolve_trace_path(
        execution.trace, resume, f"trace_{artifact}_{dataset_name}_{conv}.jsonl")
    if trace_target is None:
        _, result = execute()
        return result

    from ..obs import TraceSession

    session = TraceSession(trace_target)
    with session:
        plan, result = execute()
    session.fingerprint = plan.meta.get("dataset_fingerprint")
    session.finalize(result, run_meta=dict(plan.meta, jobs=execution.workers))
    return result
