"""Planned, fault-tolerant experiment execution with checkpointed resume.

Every grid artifact (Figs. 3/4 fidelity, Table IV AUC, Table V runtime)
runs through this package. It decomposes the artifact into independent
``(method, instance-chunk)`` jobs (:mod:`~repro.runner.plan`), each with
its own seed derived from the config seed and the job id; executes them
inline or across a crash-isolated worker pool with per-job timeout and
bounded retry (:mod:`~repro.runner.pool`); checkpoints every outcome to
an append-only JSONL journal for ``--resume``
(:mod:`~repro.runner.journal`); and folds the records into the
artifact's rows in plan order (:mod:`~repro.runner.aggregate`). So the
numbers depend on the :class:`~repro.eval.experiments.ExperimentConfig`
alone, never on the worker count or on a resume. See ``DESIGN.md`` §7
for the job model.

Typical use goes through :mod:`repro.eval.experiments`::

    run_fidelity_experiment("mutag", "gin", ALL_METHODS, config=cfg,
                            execution=ExecutionConfig(jobs=4,
                                                      resume="runs/fid.jsonl"))

or the CLI::

    repro experiment fidelity -d mutag -m gin --jobs 4 --resume runs/fid.jsonl
"""

from .aggregate import aggregate_experiment
from .driver import plan_artifact, run_planned_experiment
from .execute import execute_job, experiment_context
from .journal import Journal, load_journal
from .plan import ExperimentPlan, JobSpec, plan_experiment
from .pool import run_jobs

__all__ = [
    "JobSpec",
    "ExperimentPlan",
    "plan_experiment",
    "run_jobs",
    "Journal",
    "load_journal",
    "execute_job",
    "experiment_context",
    "aggregate_experiment",
    "plan_artifact",
    "run_planned_experiment",
]
