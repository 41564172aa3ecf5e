"""Experiment runners: one function per paper artifact.

Each runner reproduces the workload behind a table or figure of the paper
and returns structured results plus formatted text rows. The benchmark
harness (``benchmarks/``) wraps these and writes the outputs to
``benchmarks/results/``.

Cost control — note the defaults are **cheap mode**, not paper scale:
``REPRO_SCALE`` scales dataset sizes, ``REPRO_INSTANCES`` sets instances
per dataset (**default 8**; the paper uses 50) and ``REPRO_EFFORT``
multiplies explainer epoch/sample budgets (**default 0.2**; ``1.0``
reproduces the paper's §V-A settings). Numbers produced at the defaults
are smoke-scale and must not be read as paper-grade reproductions — set
``REPRO_INSTANCES=50 REPRO_EFFORT=1`` (and ``REPRO_SCALE=1``) for those.

The grid runners (fidelity / AUC / runtime) also accept
``execution=ExecutionConfig(jobs=..., resume=...)``: ``jobs=N`` shards
the artifact into per-``(method, instance-chunk)`` work units executed
by :mod:`repro.runner` (``N=1`` inline, ``N>1`` across a crash-isolated
worker pool), and ``resume=`` names a JSONL journal that checkpoints every job so an interrupted run
picks up where it left off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..datasets import GraphDataset, NodeDataset, load_dataset
from ..errors import EvaluationError
from ..execution import ExecutionConfig, reject_driver_kwargs, resolve_trace_path
from ..explain import make_explainer
from ..explain.base import Explainer
from ..explain.target import ExplainTarget, as_node_id
from ..nn.models import GNN
from ..nn.zoo import get_model
from ..obs import span
from ..obs.names import SPAN_FIT, SPAN_METHOD
from ..rng import ensure_rng
from .auc import mean_explanation_auc
from .fidelity import Instance, fidelity_curve
from .timing import TimingResult, time_explainer

__all__ = [
    "ExperimentConfig",
    "ExecutionConfig",
    "method_config",
    "build_instances",
    "run_explainer",
    "run_fidelity_experiment",
    "run_auc_experiment",
    "run_runtime_experiment",
    "run_alpha_sensitivity",
    "run_dataset_table",
    "DEFAULT_SPARSITIES",
    "ALL_METHODS",
    "FACTUAL_METHODS",
    "COUNTERFACTUAL_METHODS",
]

DEFAULT_SPARSITIES = (0.5, 0.6, 0.7, 0.8, 0.9)

# Method rosters as evaluated in the paper's figures.
ALL_METHODS = ("gradcam", "deeplift", "gnnexplainer", "pgexplainer", "graphmask",
               "pgm_explainer", "subgraphx", "gnn_lrp", "flowx", "revelio")
FACTUAL_METHODS = ALL_METHODS
COUNTERFACTUAL_METHODS = ("gnnexplainer", "pgexplainer", "graphmask", "flowx", "revelio")

# Datasets SubgraphX is restricted to (paper §V-B: "the last four datasets").
SUBGRAPHX_DATASETS = ("tree_cycles", "mutag", "bbbp", "ba_2motifs")


def _effort() -> float:
    return float(os.environ.get("REPRO_EFFORT", "0.2"))


def _instances_per_dataset() -> int:
    return int(os.environ.get("REPRO_INSTANCES", "8"))


@dataclass
class ExperimentConfig:
    """Knobs shared by all runners."""

    scale: float | None = None          # None → REPRO_SCALE
    num_instances: int | None = None    # None → REPRO_INSTANCES (paper: 50)
    effort: float | None = None         # None → REPRO_EFFORT (1.0 = paper)
    seed: int = 0
    sparsities: tuple[float, ...] = DEFAULT_SPARSITIES
    alpha: float = 0.05                 # Revelio sparsity constraint
    extra: dict = field(default_factory=dict)

    def resolved_instances(self) -> int:
        return self.num_instances if self.num_instances is not None else _instances_per_dataset()

    def resolved_effort(self) -> float:
        return self.effort if self.effort is not None else _effort()


def method_config(method: str, effort: float, *, alpha: float = 0.05) -> dict:
    """Per-method constructor kwargs at an effort level.

    ``effort=1.0`` reproduces the paper's §V-A settings (500/500/200
    epochs, original learning rates); smaller values scale the iteration
    budgets proportionally, with floors that keep methods functional.
    """
    def epochs(paper: int, floor: int = 25) -> int:
        return max(floor, int(round(paper * effort)))

    configs: dict[str, dict] = {
        "gradcam": {},
        "deeplift": {},
        "random": {},
        "gnnexplainer": {"epochs": epochs(500), "lr": 1e-2},
        "pgexplainer": {"epochs": epochs(500), "lr": 3e-3},
        "graphmask": {"epochs": epochs(200), "lr": 1e-2},
        "pgm_explainer": {"num_samples": epochs(100, floor=20)},
        "subgraphx": {"rollouts": epochs(20, floor=5),
                      "shapley_samples": epochs(8, floor=3)},
        "gnn_lrp": {},
        "flowx": {"samples": epochs(10, floor=2), "finetune_epochs": epochs(100)},
        "revelio": {"epochs": epochs(500), "lr": 1e-2, "alpha": alpha},
    }
    if method not in configs:
        raise EvaluationError(f"unknown method {method!r}")
    return configs[method]


def method_applicable(method: str, dataset_name: str, conv: str) -> bool:
    """Paper-documented compatibility matrix."""
    if conv == "gat" and dataset_name in ("ba_shapes", "tree_cycles", "ba_2motifs"):
        return False  # GAT N/A on synthetics (Table III)
    if method == "gnn_lrp" and conv == "gat":
        return False  # GNN-LRP incompatible with GAT (§V-A)
    if method == "subgraphx" and (dataset_name not in SUBGRAPHX_DATASETS or conv == "gat"):
        return False  # SubgraphX restricted for cost (§V-B)
    return True


# ----------------------------------------------------------------------
# instance construction
# ----------------------------------------------------------------------
def build_instances(dataset: NodeDataset | GraphDataset, n: int, *,
                    seed: int = 0, motif_only: bool = False,
                    correct_only: bool = False, model: GNN | None = None) -> list[Instance]:
    """Sample evaluation instances per the paper's protocol.

    §V-B fidelity: random instances regardless of labels/predictions.
    Table IV AUC: motif instances with correct predictions
    (``motif_only=True, correct_only=True``; requires ``model``).
    """
    rng = ensure_rng(seed)
    if dataset.task == "node":
        candidates = dataset.sample_targets(8 * n if correct_only else n, rng=rng,
                                            motif_only=motif_only)
        instances = [Instance(dataset.graph, ExplainTarget.node(int(v)))
                     for v in candidates]
        if correct_only:
            if model is None:
                raise EvaluationError("correct_only requires a model")
            pred = model.predict(dataset.graph)
            instances = [i for i in instances
                         if pred[as_node_id(i.target)] == dataset.graph.y[as_node_id(i.target)]]
        return instances[:n]
    candidates = dataset.sample_targets(8 * n if correct_only else n, rng=rng,
                                        motif_only=motif_only)
    instances = [Instance(dataset.graphs[int(i)], None) for i in candidates]
    if correct_only:
        if model is None:
            raise EvaluationError("correct_only requires a model")
        instances = [i for i in instances if model.predict(i.graph)[0] == int(i.graph.y)]
    return instances[:n]


def _fit_if_group_method(explainer: Explainer, instances: list[Instance],
                         mode: str) -> None:
    """PGExplainer / GraphMask train once over the instance group."""
    if not hasattr(explainer, "fit"):
        return
    pairs = []
    for inst in instances:
        if explainer.model.task == "node":
            ctx = explainer.node_context(inst.graph, as_node_id(inst.target))
            pairs.append((ctx.subgraph, ctx.local_target))
        else:
            pairs.append((inst.graph, None))
    explainer.fit(pairs, mode=mode)


def run_explainer(method: str, model: GNN, instances: list[Instance], *,
                  mode: str = "factual", effort: float | None = None,
                  alpha: float = 0.05, seed: int = 0) -> TimingResult:
    """Instantiate, (group-)fit and run one method over instances."""
    effort = effort if effort is not None else _effort()
    explainer = make_explainer(method, model, seed=seed,
                               **method_config(method, effort, alpha=alpha))
    if hasattr(explainer, "fit"):
        with span(SPAN_FIT, method=method):
            _fit_if_group_method(explainer, instances, mode)
    # Methods without a counterfactual objective reuse factual scores
    # ("we use the original explanations provided by …", §V-B).
    run_mode = mode if explainer.supports_counterfactual else "factual"
    result = time_explainer(explainer, instances, mode=run_mode)
    for e in result.explanations:
        e.mode = mode
    return result


# ----------------------------------------------------------------------
# artifact runners
# ----------------------------------------------------------------------
def _run_serial(artifact: str, dataset_name: str, conv: str,
                methods: tuple[str, ...], mode: str, config: ExperimentConfig,
                execution: ExecutionConfig, dataset, body) -> dict:
    """Run ``body()`` for a serial artifact, tracing it when requested."""
    trace_target = resolve_trace_path(
        execution.trace, execution.resume,
        f"trace_{artifact}_{dataset_name}_{conv}.jsonl")
    if trace_target is None:
        return body()
    from ..obs import TraceSession, dataset_fingerprint

    session = TraceSession(
        trace_target,
        run_meta={"artifact": artifact, "dataset": dataset_name, "conv": conv,
                  "methods": list(methods), "mode": mode, "seed": config.seed,
                  "num_instances": config.resolved_instances(),
                  "effort": config.resolved_effort(), "alpha": config.alpha,
                  "jobs": None},
        fingerprint=dataset_fingerprint(dataset),
    )
    with session:
        result = body()
    session.finalize(result)
    return result


def run_fidelity_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                            *,
                            mode: str = "factual",
                            config: ExperimentConfig | None = None,
                            execution: ExecutionConfig | None = None,
                            **kwargs) -> dict:
    """Fig. 3 (factual, Fidelity−) / Fig. 4 (counterfactual, Fidelity+).

    Returns ``{"curves": {method: {sparsity: fidelity}}, "rows": [str]}``.
    Everything after the three leading positionals is keyword-only;
    execution options (``jobs``, ``resume``, ``trace``, …) travel in one
    :class:`~repro.execution.ExecutionConfig`. With ``jobs``/``resume``
    set the artifact runs through the sharded runner (see module
    docstring); for a fixed config the aggregated rows are byte-identical
    for any worker count and across ``resume``. A flat execution kwarg
    (``jobs=4``) raises :class:`~repro.errors.ReproError` naming
    ``execution=ExecutionConfig(jobs=...)``.
    """
    reject_driver_kwargs("run_fidelity_experiment", kwargs,
                         ("mode", "config", "execution"))
    config = config or ExperimentConfig()
    execution = execution or ExecutionConfig()
    if execution.sharded:
        from ..runner import run_planned_experiment

        return run_planned_experiment("fidelity", dataset_name, conv, methods,
                                      mode=mode, config=config,
                                      execution=execution)
    model, dataset, _ = get_model(dataset_name, conv, scale=config.scale, seed=config.seed)
    instances = build_instances(dataset, config.resolved_instances(), seed=config.seed)
    fid_metric = "minus" if mode == "factual" else "plus"

    def body() -> dict:
        curves: dict[str, dict[float, float]] = {}
        rows: list[str] = []
        for method in methods:
            if not method_applicable(method, dataset_name, conv):
                continue
            with span(SPAN_METHOD, method=method):
                result = run_explainer(method, model, instances, mode=mode,
                                       effort=config.resolved_effort(),
                                       alpha=config.alpha, seed=config.seed)
                curve = fidelity_curve(model, instances, result.explanations,
                                       list(config.sparsities), metric=fid_metric)
            curves[method] = curve
            values = "  ".join(f"{curve[s]:+.3f}" for s in config.sparsities)
            rows.append(f"{method:<14} {values}")
        header = f"{'method':<14} " + "  ".join(f"s={s:.1f}" for s in config.sparsities)
        return {"dataset": dataset_name, "conv": conv, "mode": mode,
                "sparsities": list(config.sparsities), "curves": curves,
                "rows": [header, *rows]}

    return _run_serial("fidelity", dataset_name, conv, methods, mode, config,
                       execution, dataset, body)


def run_auc_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                       *,
                       mode: str = "factual",
                       config: ExperimentConfig | None = None,
                       execution: ExecutionConfig | None = None,
                       **kwargs) -> dict:
    """Table IV: explanation AUC against planted motifs (synthetics only)."""
    reject_driver_kwargs("run_auc_experiment", kwargs,
                         ("mode", "config", "execution"))
    config = config or ExperimentConfig()
    execution = execution or ExecutionConfig()
    if execution.sharded:
        from ..runner import run_planned_experiment

        return run_planned_experiment("auc", dataset_name, conv, methods,
                                      mode=mode, config=config,
                                      execution=execution)
    model, dataset, _ = get_model(dataset_name, conv, scale=config.scale, seed=config.seed)
    instances = build_instances(dataset, config.resolved_instances(), seed=config.seed,
                                motif_only=True, correct_only=True, model=model)
    if not instances:
        raise EvaluationError(f"{dataset_name}/{conv}: no correctly-predicted motif instances")
    graphs = [inst.graph for inst in instances]

    def body() -> dict:
        aucs: dict[str, float] = {}
        for method in methods:
            if not method_applicable(method, dataset_name, conv):
                continue
            with span(SPAN_METHOD, method=method):
                result = run_explainer(method, model, instances, mode=mode,
                                       effort=config.resolved_effort(),
                                       alpha=config.alpha, seed=config.seed)
                aucs[method] = mean_explanation_auc(graphs, result.explanations)
        rows = [f"{m:<14} {v:.3f}" for m, v in aucs.items()]
        return {"dataset": dataset_name, "conv": conv, "mode": mode,
                "num_instances": len(instances), "auc": aucs, "rows": rows}

    return _run_serial("auc", dataset_name, conv, methods, mode, config,
                       execution, dataset, body)


def run_runtime_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                           *,
                           config: ExperimentConfig | None = None,
                           execution: ExecutionConfig | None = None,
                           **kwargs) -> dict:
    """Table V: mean running time per instance for each method."""
    reject_driver_kwargs("run_runtime_experiment", kwargs,
                         ("config", "execution"))
    config = config or ExperimentConfig()
    execution = execution or ExecutionConfig()
    if execution.sharded:
        from ..runner import run_planned_experiment

        return run_planned_experiment("runtime", dataset_name, conv, methods,
                                      config=config, execution=execution)
    model, dataset, _ = get_model(dataset_name, conv, scale=config.scale, seed=config.seed)
    instances = build_instances(dataset, config.resolved_instances(), seed=config.seed)

    def body() -> dict:
        times: dict[str, float] = {}
        details: dict[str, dict] = {}
        for method in methods:
            if not method_applicable(method, dataset_name, conv):
                continue
            with span(SPAN_METHOD, method=method):
                result = run_explainer(method, model, instances, mode="factual",
                                       effort=config.resolved_effort(),
                                       alpha=config.alpha, seed=config.seed)
            times[method] = result.mean_seconds
            details[method] = {"total": result.total_seconds,
                               "std": result.std_seconds}
            # PGExplainer reports "training (inference)" separately.
            train_s = None
            if result.explanations:
                train_s = result.explanations[0].meta.get("perf", {}).get("train_seconds")
            if train_s:
                details[method]["train_seconds"] = train_s
        rows = []
        for m, v in times.items():
            extra = details[m].get("train_seconds")
            label = f"{v:.3f}" + (f" (train {extra:.1f})" if extra else "")
            rows.append(f"{m:<14} {label}")
        return {"dataset": dataset_name, "conv": conv, "mean_seconds": times,
                "details": details, "rows": rows}

    return _run_serial("runtime", dataset_name, conv, methods, "factual",
                       config, execution, dataset, body)


def run_alpha_sensitivity(dataset_name: str, conv: str, *,
                          alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
                          mode: str = "factual",
                          config: ExperimentConfig | None = None) -> dict:
    """Fig. 5: fidelity across the sparsity grid for several α values."""
    config = config or ExperimentConfig()
    model, dataset, _ = get_model(dataset_name, conv, scale=config.scale, seed=config.seed)
    instances = build_instances(dataset, config.resolved_instances(), seed=config.seed)
    fid_metric = "minus" if mode == "factual" else "plus"

    curves: dict[float, dict[float, float]] = {}
    for alpha in alphas:
        result = run_explainer("revelio", model, instances, mode=mode,
                               effort=config.resolved_effort(), alpha=alpha,
                               seed=config.seed)
        curves[alpha] = fidelity_curve(model, instances, result.explanations,
                                       list(config.sparsities), metric=fid_metric)
    rows = [f"{'alpha':<8} " + "  ".join(f"s={s:.1f}" for s in config.sparsities)]
    for alpha, curve in curves.items():
        rows.append(f"{alpha:<8.2f} " + "  ".join(f"{curve[s]:+.3f}" for s in config.sparsities))
    return {"dataset": dataset_name, "conv": conv, "mode": mode,
            "alphas": list(alphas), "curves": curves, "rows": rows}


def run_dataset_table(*, dataset_names: tuple[str, ...] | None = None,
                      convs: tuple[str, ...] = ("gcn", "gin", "gat"),
                      config: ExperimentConfig | None = None) -> dict:
    """Table III: dataset statistics and target-model accuracies."""
    from ..datasets import DATASET_NAMES

    config = config or ExperimentConfig()
    dataset_names = dataset_names or DATASET_NAMES
    rows = []
    records = {}
    header = (f"{'dataset':<12} {'#graphs':>8} {'#nodes':>9} {'#edges':>9} "
              f"{'#feat':>10} {'#cls':>8} " + " ".join(f"{c:>8}" for c in convs))
    rows.append(header)
    for name in dataset_names:
        dataset = load_dataset(name, scale=config.scale, seed=config.seed)
        stats = dataset.stats()
        accs = {}
        for conv in convs:
            if conv == "gat" and name in ("ba_shapes", "tree_cycles", "ba_2motifs"):
                accs[conv] = None
                continue
            model, _, result = get_model(name, conv, scale=config.scale,
                                         seed=config.seed, dataset=dataset)
            if result is not None:
                accs[conv] = result.test_acc
            else:
                import json
                from ..nn.zoo import RECIPES, TrainRecipe, _cache_key, cache_dir
                recipe = RECIPES.get(name, TrainRecipe())
                scale = config.scale
                if scale is None:
                    from ..datasets import default_scale
                    scale = default_scale()
                key = _cache_key(name, conv, scale, config.seed, recipe)
                meta = cache_dir() / f"{name}_{conv}_{key}.json"
                accs[conv] = json.loads(meta.read_text())["test_acc"] if meta.exists() else float("nan")
        records[name] = {"stats": stats, "accuracy": accs}
        acc_text = " ".join(
            f"{'N/A':>8}" if accs[c] is None else f"{accs[c]:>7.1%}" for c in convs
        )
        rows.append(stats.row() + " " + acc_text)
    return {"records": records, "rows": rows}
