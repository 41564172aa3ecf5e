"""Job executors: the code a worker runs for each :class:`JobSpec` kind.

The registry maps ``JobSpec.kind`` to a callable ``fn(payload, seed) ->
json-serializable dict``. Experiment chunk executors rebuild their context
(dataset, trained model, instance list) deterministically from the payload
— every process derives the *same* instance index space from the config
seed, so a chunk's ``instances`` indices mean the same thing everywhere.

Contexts are memoized per process: a pool worker pays the dataset/model
load once and then streams through its share of the chunks. Under the
``fork`` start method the memo warmed by the planner is inherited for
free.
"""

from __future__ import annotations

import importlib
import time

from ..errors import RunnerError

__all__ = ["EXECUTORS", "register_executor", "execute_job",
           "experiment_context"]

EXECUTORS: dict = {}


def register_executor(kind: str, fn) -> None:
    """Register ``fn(payload, seed) -> dict`` as the executor for ``kind``."""
    EXECUTORS[kind] = fn


def execute_job(job) -> dict:
    """Dispatch one job to its executor; raises on unknown kind."""
    try:
        fn = EXECUTORS[job.kind]
    except KeyError:
        raise RunnerError(f"no executor registered for job kind {job.kind!r}") from None
    return fn(job.payload, job.seed)


# ----------------------------------------------------------------------
# experiment context (memoized per process)
# ----------------------------------------------------------------------
_CONTEXT_CACHE: dict = {}


def experiment_context(payload: dict):
    """``(model, dataset, instances)`` for an experiment-chunk payload.

    Deterministic given the payload: the model comes from the zoo cache
    (or is retrained with the same recipe/seed) and the instance list is
    rebuilt with the config seed, so chunk indices are stable across
    processes and runs.
    """
    key = (payload["dataset"], payload["conv"], payload["scale"],
           payload["config_seed"], payload["num_instances"],
           payload.get("motif_only", False), payload.get("correct_only", False))
    if key in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[key]
    from ..eval.experiments import build_instances
    from ..nn.zoo import get_model

    model, dataset, _ = get_model(payload["dataset"], payload["conv"],
                                  scale=payload["scale"], seed=payload["config_seed"])
    instances = build_instances(
        dataset, payload["num_instances"], seed=payload["config_seed"],
        motif_only=payload.get("motif_only", False),
        correct_only=payload.get("correct_only", False),
        model=model if payload.get("correct_only") else None,
    )
    _CONTEXT_CACHE[key] = (model, dataset, instances)
    return _CONTEXT_CACHE[key]


def clear_context_cache() -> None:
    """Drop memoized experiment contexts (tests / memory pressure)."""
    _CONTEXT_CACHE.clear()


def _run_chunk(payload: dict, seed: int):
    """Common front half of every experiment executor."""
    from ..eval.experiments import run_explainer

    model, dataset, instances = experiment_context(payload)
    subset = [instances[i] for i in payload["instances"]]
    result = run_explainer(payload["method"], model, subset, mode=payload["mode"],
                           effort=payload["effort"], alpha=payload["alpha"],
                           seed=seed)
    return model, subset, result


def run_fidelity_chunk(payload: dict, seed: int) -> dict:
    """Fidelity− / Fidelity+ partial: per-sparsity means over the chunk."""
    from ..eval.fidelity import fidelity_curve

    model, subset, result = _run_chunk(payload, seed)
    metric = "minus" if payload["mode"] == "factual" else "plus"
    curve = fidelity_curve(model, subset, result.explanations,
                           list(payload["sparsities"]), metric=metric)
    return {"method": payload["method"], "n": len(subset),
            "sparsities": list(payload["sparsities"]),
            "values": [curve[float(s)] for s in payload["sparsities"]]}


def run_auc_chunk(payload: dict, seed: int) -> dict:
    """Motif-AUC partial: one AUC per non-degenerate instance, in order."""
    from ..errors import EvaluationError
    from ..eval.auc import explanation_auc

    _, subset, result = _run_chunk(payload, seed)
    values = []
    for inst, exp in zip(subset, result.explanations):
        try:
            values.append(explanation_auc(inst.graph, exp))
        except EvaluationError:
            continue  # degenerate instance (all-pos/neg), skipped as in mean_explanation_auc
    return {"method": payload["method"], "n": len(subset), "values": values}


def run_runtime_chunk(payload: dict, seed: int) -> dict:
    """Table V partial: per-instance wall-clock for the chunk."""
    _, subset, result = _run_chunk(payload, seed)
    train_s = (result.explanations[0].meta.get("perf", {}).get("train_seconds")
               if result.explanations else None)
    return {"method": payload["method"], "n": len(subset),
            "per_instance": [float(t) for t in result.per_instance],
            "total_seconds": float(result.total_seconds),
            "train_seconds": float(train_s) if train_s else None}


def run_sampled_explain_chunk(payload: dict, seed: int) -> dict:
    """Explain one shard of targets, streamed.

    Targets are explained **one at a time** and reduced to compact summary
    rows immediately, so the worker's peak memory is bounded by the largest
    single receptive field — never by the shard size. Each explanation
    runs on the target's receptive field (``Explainer.node_context``), so
    a row's ``num_nodes`` / ``num_edges`` are that field's size.
    """
    import numpy as np

    from ..explain import make_explainer
    from ..nn.zoo import get_model

    model, dataset, _ = get_model(payload["dataset"], payload["conv"],
                                  scale=payload["scale"],
                                  seed=payload["config_seed"])
    explainer = make_explainer(payload["explainer"], model,
                               seed=seed, **payload.get("params", {}))
    rows = []
    digest = 0
    for target in payload["targets"]:
        explanation = explainer.explain(dataset.graph, target,
                                        mode=payload["mode"])
        scores = explanation.edge_scores
        top = explanation.top_edges(10)
        digest = (digest * 1000003
                  + int(np.abs(scores).sum() * 1e6)) % (1 << 62)
        rows.append({
            "target": target.to_wire(),
            "predicted_class": int(explanation.predicted_class),
            "num_nodes": len(explanation.context_node_ids),
            "num_edges": len(explanation.context_edge_positions),
            "num_hops": int(model.num_layers),
            "top_edges": [int(e) for e in top],
            "top_scores": [float(scores[e]) for e in top],
        })
        del explanation, scores  # keep the streamed-shard memory bound honest
    return {"explainer": payload["explainer"], "mode": payload["mode"],
            "n": len(rows), "rows": rows, "checksum": digest}


# ----------------------------------------------------------------------
# generic executors (benchmarks, tests, ad-hoc fan-out)
# ----------------------------------------------------------------------
def run_sleep(payload: dict, seed: int) -> dict:
    """Block for ``payload["seconds"]`` — isolates pool orchestration cost."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"slept": float(payload.get("seconds", 0.0))}


def run_pycall(payload: dict, seed: int) -> dict:
    """Import ``module:attr`` and call it with ``kwargs`` (plus the seed).

    Importable-path indirection keeps custom jobs usable under the
    ``spawn`` start method, where workers do not inherit runtime
    :func:`register_executor` calls.
    """
    module, _, attr = payload["func"].partition(":")
    fn = getattr(importlib.import_module(module), attr)
    out = fn(seed=seed, **payload.get("kwargs", {}))
    return out if isinstance(out, dict) else {"value": out}


register_executor("fidelity_chunk", run_fidelity_chunk)
register_executor("sampled_explain_chunk", run_sampled_explain_chunk)
register_executor("auc_chunk", run_auc_chunk)
register_executor("runtime_chunk", run_runtime_chunk)
register_executor("sleep", run_sleep)
register_executor("pycall", run_pycall)
