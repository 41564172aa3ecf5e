"""Evaluation: fidelity, AUC, sparsity control, timing, experiment runners."""

from .auc import explanation_auc, mean_explanation_auc, roc_auc
from .fidelity import (
    Instance,
    class_probability,
    fidelity_curve,
    fidelity_minus,
    fidelity_plus,
)
from .sparsity import (
    explanatory_subgraph,
    select_explanatory_edges,
    unexplanatory_subgraph,
)
from .experiments import (
    ALL_METHODS,
    COUNTERFACTUAL_METHODS,
    DEFAULT_SPARSITIES,
    FACTUAL_METHODS,
    ExecutionConfig,
    ExperimentConfig,
    build_instances,
    method_config,
    run_alpha_sensitivity,
    run_auc_experiment,
    run_dataset_table,
    run_explainer,
    run_fidelity_experiment,
    run_runtime_experiment,
)
from .report import build_report, write_report
from .sanity import model_randomization_check
from .timing import TimingResult, time_explainer

__all__ = [
    "ExecutionConfig",
    "ExperimentConfig",
    "build_report",
    "write_report",
    "model_randomization_check",
    "ALL_METHODS",
    "FACTUAL_METHODS",
    "COUNTERFACTUAL_METHODS",
    "DEFAULT_SPARSITIES",
    "method_config",
    "build_instances",
    "run_explainer",
    "run_fidelity_experiment",
    "run_auc_experiment",
    "run_runtime_experiment",
    "run_alpha_sensitivity",
    "run_dataset_table",
    "Instance",
    "class_probability",
    "fidelity_minus",
    "fidelity_plus",
    "fidelity_curve",
    "roc_auc",
    "explanation_auc",
    "mean_explanation_auc",
    "select_explanatory_edges",
    "explanatory_subgraph",
    "unexplanatory_subgraph",
    "TimingResult",
    "time_explainer",
]
