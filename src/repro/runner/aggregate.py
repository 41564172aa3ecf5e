"""Fold job records into each artifact's result dict and text rows.

Aggregation consumes only the plan (for deterministic ordering) and the
job records (in-memory or journal-loaded — JSON round-trips floats
exactly, so the two are interchangeable). Partial sums always run in plan
order, never completion order, which is what makes rows byte-identical
across ``workers=1``, ``workers=N`` and resumed runs.

Methods with failed chunks are aggregated over their surviving chunks and
reported under ``"failures"``; a method whose every chunk failed is
omitted from the curves rather than aborting the artifact. So is an AUC
method none of whose instances has a defined AUC: it is listed under
``"failures"`` with an ``EvaluationError`` entry, not silently dropped.
"""

from __future__ import annotations

import numpy as np

from .plan import ExperimentPlan

__all__ = ["aggregate_experiment", "aggregate_fidelity", "aggregate_auc",
           "aggregate_runtime"]


def aggregate_experiment(plan: ExperimentPlan, records: dict[str, dict]) -> dict:
    """Dispatch on the plan's artifact kind."""
    fn = {"fidelity": aggregate_fidelity, "auc": aggregate_auc,
          "runtime": aggregate_runtime}[plan.artifact]
    return fn(plan, records)


def _collect(plan: ExperimentPlan, records: dict[str, dict], method: str):
    """(ok result payloads in plan order, failure summaries) for a method."""
    oks, failures = [], []
    for job in plan.jobs_for_method(method):
        rec = records.get(job.id)
        if rec is not None and rec.get("status") == "ok":
            oks.append(rec["result"])
        else:
            error = (rec or {}).get("error") or {"type": "Missing",
                                                 "message": "no record for job"}
            failures.append({"job": job.id, "attempts": (rec or {}).get("attempt", 0),
                             "error": {"type": error.get("type"),
                                       "message": error.get("message")}})
    return oks, failures


def _job_stats(plan: ExperimentPlan, records: dict[str, dict]) -> dict:
    done = sum(1 for j in plan.jobs
               if records.get(j.id, {}).get("status") == "ok")
    return {"total": len(plan.jobs), "ok": done, "failed": len(plan.jobs) - done}


def aggregate_fidelity(plan: ExperimentPlan, records: dict[str, dict]) -> dict:
    """The result dict of :func:`repro.eval.experiments.run_fidelity_experiment`."""
    meta = plan.meta
    sparsities = [float(s) for s in meta["sparsities"]]
    curves: dict[str, dict[float, float]] = {}
    failures: dict[str, list] = {}
    rows: list[str] = []
    for method in meta["methods"]:
        oks, failed = _collect(plan, records, method)
        if failed:
            failures[method] = failed
        if not oks:
            continue
        sums = np.zeros(len(sparsities))
        n_total = 0
        for result in oks:
            sums += np.asarray(result["values"], dtype=np.float64) * result["n"]
            n_total += result["n"]
        curve = {s: float(v / n_total) for s, v in zip(sparsities, sums)}
        curves[method] = curve
        values = "  ".join(f"{curve[s]:+.3f}" for s in sparsities)
        rows.append(f"{method:<14} {values}")
    header = f"{'method':<14} " + "  ".join(f"s={s:.1f}" for s in sparsities)
    return {"dataset": meta["dataset"], "conv": meta["conv"], "mode": meta["mode"],
            "sparsities": sparsities, "curves": curves,
            "rows": [header, *rows], "failures": failures,
            "jobs": _job_stats(plan, records)}


def aggregate_auc(plan: ExperimentPlan, records: dict[str, dict]) -> dict:
    """The result dict of :func:`repro.eval.experiments.run_auc_experiment`."""
    meta = plan.meta
    aucs: dict[str, float] = {}
    failures: dict[str, list] = {}
    for method in meta["methods"]:
        oks, failed = _collect(plan, records, method)
        if failed:
            failures[method] = failed
        values = [v for result in oks for v in result["values"]]
        if values:
            aucs[method] = float(np.mean(np.asarray(values, dtype=np.float64)))
        elif oks:
            failures.setdefault(method, []).append(
                {"job": f"auc:{meta['dataset']}:{meta['conv']}:{meta['mode']}:{method}",
                 "attempts": 0,
                 "error": {"type": "EvaluationError",
                           "message": "no instance produced a defined AUC"}})
    rows = [f"{m:<14} {v:.3f}" for m, v in aucs.items()]
    return {"dataset": meta["dataset"], "conv": meta["conv"], "mode": meta["mode"],
            "num_instances": meta["num_instances"], "auc": aucs, "rows": rows,
            "failures": failures, "jobs": _job_stats(plan, records)}


def aggregate_runtime(plan: ExperimentPlan, records: dict[str, dict]) -> dict:
    """The result dict of :func:`repro.eval.experiments.run_runtime_experiment`."""
    meta = plan.meta
    times: dict[str, float] = {}
    details: dict[str, dict] = {}
    failures: dict[str, list] = {}
    for method in meta["methods"]:
        oks, failed = _collect(plan, records, method)
        if failed:
            failures[method] = failed
        per_instance = [t for result in oks for t in result["per_instance"]]
        if not per_instance:
            continue
        arr = np.asarray(per_instance, dtype=np.float64)
        times[method] = float(arr.mean())
        details[method] = {"total": float(sum(r["total_seconds"] for r in oks)),
                           "std": float(arr.std())}
        train = next((r["train_seconds"] for r in oks if r.get("train_seconds")), None)
        if train:
            details[method]["train_seconds"] = train
    rows = []
    for m, v in times.items():
        extra = details[m].get("train_seconds")
        label = f"{v:.3f}" + (f" (train {extra:.1f})" if extra else "")
        rows.append(f"{m:<14} {label}")
    return {"dataset": meta["dataset"], "conv": meta["conv"], "mean_seconds": times,
            "details": details, "rows": rows, "failures": failures,
            "jobs": _job_stats(plan, records)}
