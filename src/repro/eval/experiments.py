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

The grid runners (fidelity / AUC / runtime, and the α sweep built on
fidelity) have one implementation: each plans the artifact into
per-``(method, instance-chunk)`` jobs, every job seeded from the config
seed and its job id, and runs them through :mod:`repro.runner`. Their
``execution=ExecutionConfig(jobs=..., resume=...)`` only says how the
jobs run — ``jobs=None``/``1`` inline, ``jobs=N`` across a
crash-isolated worker pool, ``resume=`` a JSONL journal that checkpoints
every job so an interrupted run picks up where it left off — so an
artifact's numbers depend on its :class:`ExperimentConfig` alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from ..datasets import GraphDataset, NodeDataset, load_dataset
from ..errors import EvaluationError
from ..execution import ExecutionConfig, reject_driver_kwargs
from ..explain import GroupExplainer, make_explainer
from ..explain.target import ExplainTarget, as_node_id
from ..nn.models import GNN
from ..nn.zoo import get_model
from ..obs import span
from ..obs.names import SPAN_FIT
from ..rng import ensure_rng
from .fidelity import Instance
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


def run_explainer(method: str, model: GNN, instances: list[Instance], *,
                  mode: str = "factual", effort: float | None = None,
                  alpha: float = 0.05, seed: int = 0) -> TimingResult:
    """Instantiate, (group-)fit and run one method over instances."""
    effort = effort if effort is not None else _effort()
    explainer = make_explainer(method, model, seed=seed,
                               **method_config(method, effort, alpha=alpha))
    if isinstance(explainer, GroupExplainer):
        with span(SPAN_FIT, method=method):
            explainer.fit([explainer.fit_instance(i.graph, i.target) for i in instances],
                          mode=mode)
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
def run_fidelity_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                            *,
                            mode: str = "factual",
                            config: ExperimentConfig | None = None,
                            execution: ExecutionConfig | None = None,
                            **kwargs) -> dict:
    """Fig. 3 (factual, Fidelity−) / Fig. 4 (counterfactual, Fidelity+).

    Returns ``{"curves": {method: {sparsity: fidelity}}, "rows": [str],
    "failures": {method: [...]}, "jobs": {...}}``. Everything after the
    three leading positionals is keyword-only; execution options
    (``jobs``, ``resume``, ``trace``, …) travel in one
    :class:`~repro.execution.ExecutionConfig` and never change the
    numbers (see module docstring). An unknown method raises
    :class:`~repro.errors.EvaluationError` before any job runs. A flat
    execution kwarg (``jobs=4``) raises :class:`~repro.errors.ReproError`
    naming ``execution=ExecutionConfig(jobs=...)``.
    """
    reject_driver_kwargs("run_fidelity_experiment", kwargs,
                         ("mode", "config", "execution"))
    from ..runner import run_planned_experiment

    return run_planned_experiment("fidelity", dataset_name, conv, methods,
                                  mode=mode, config=config, execution=execution)


def run_auc_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                       *,
                       mode: str = "factual",
                       config: ExperimentConfig | None = None,
                       execution: ExecutionConfig | None = None,
                       **kwargs) -> dict:
    """Table IV: explanation AUC against planted motifs (synthetics only).

    A method none of whose instances has a defined AUC is listed under
    ``"failures"``.
    """
    reject_driver_kwargs("run_auc_experiment", kwargs,
                         ("mode", "config", "execution"))
    from ..runner import run_planned_experiment

    return run_planned_experiment("auc", dataset_name, conv, methods,
                                  mode=mode, config=config, execution=execution)


def run_runtime_experiment(dataset_name: str, conv: str, methods: tuple[str, ...],
                           *,
                           config: ExperimentConfig | None = None,
                           execution: ExecutionConfig | None = None,
                           **kwargs) -> dict:
    """Table V: mean running time per instance for each method."""
    reject_driver_kwargs("run_runtime_experiment", kwargs,
                         ("config", "execution"))
    from ..runner import run_planned_experiment

    return run_planned_experiment("runtime", dataset_name, conv, methods,
                                  config=config, execution=execution)


def run_alpha_sensitivity(dataset_name: str, conv: str, *,
                          alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
                          mode: str = "factual",
                          config: ExperimentConfig | None = None) -> dict:
    """Fig. 5: Revelio's fidelity curve for each α, one fidelity run per α.

    Failures of an α's run are reported under ``"failures"[alpha]``.
    """
    config = config or ExperimentConfig()
    curves: dict[float, dict[float, float]] = {}
    failures: dict[float, list] = {}
    for alpha in alphas:
        result = run_fidelity_experiment(dataset_name, conv, ("revelio",), mode=mode,
                                         config=replace(config, alpha=alpha))
        if "revelio" in result["curves"]:
            curves[alpha] = result["curves"]["revelio"]
        if result["failures"]:
            failures[alpha] = result["failures"]["revelio"]
    rows = [f"{'alpha':<8} " + "  ".join(f"s={s:.1f}" for s in config.sparsities)]
    for alpha, curve in curves.items():
        rows.append(f"{alpha:<8.2f} " + "  ".join(f"{curve[s]:+.3f}" for s in config.sparsities))
    return {"dataset": dataset_name, "conv": conv, "mode": mode,
            "alphas": list(alphas), "curves": curves, "rows": rows,
            "failures": failures}


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
