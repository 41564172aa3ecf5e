"""Ablation A2: tanh vs. sigmoid flow-mask mapping (paper §IV-B).

The paper argues tanh's negative range prevents layer edges that merely
carry many flows from accumulating large masks. This bench compares the
two mappings on factual Fidelity− and on motif AUC (where the
many-flows-high-score pathology shows up most directly).
"""

from __future__ import annotations

import pytest

from repro.core import MASK_ACTIVATIONS, Revelio
from repro.eval import (
    DEFAULT_SPARSITIES,
    ExperimentConfig,
    build_instances,
    fidelity_minus,
    mean_explanation_auc,
)
from repro.eval.timing import time_explainer
from repro.nn.zoo import get_model

from conftest import bench_datasets, write_result

DATASETS = tuple(d for d in bench_datasets(("ba_shapes", "tree_cycles"))
                 if d in ("ba_shapes", "tree_cycles", "ba_2motifs"))


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_ablation_mask_mapping(benchmark, dataset_name):
    """Fidelity− and motif AUC per flow-mask mapping."""
    conv = "gin" if dataset_name == "ba_2motifs" else "gcn"
    model, dataset, _ = get_model(dataset_name, conv)
    config = ExperimentConfig()
    instances = build_instances(dataset, config.resolved_instances(), seed=0,
                                motif_only=True, correct_only=True, model=model)
    if not instances:
        instances = build_instances(dataset, config.resolved_instances(), seed=0,
                                    motif_only=True)
    graphs = [inst.graph for inst in instances]

    def run():
        rows = [f"{'mapping':<9} {'auc':>6}  "
                + "  ".join(f"s={s:.1f}" for s in DEFAULT_SPARSITIES)]
        for mapping in MASK_ACTIVATIONS:
            explainer = Revelio(model, epochs=max(25, int(500 * config.resolved_effort())),
                                mask_activation=mapping, seed=0)
            result = time_explainer(explainer, instances)
            auc = mean_explanation_auc(graphs, result.explanations)
            curve = [fidelity_minus(model, instances, result.explanations, s)
                     for s in DEFAULT_SPARSITIES]
            rows.append(f"{mapping:<9} {auc:>6.3f}  "
                        + "  ".join(f"{v:+.3f}" for v in curve))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(f"ablation_mask_mapping_{dataset_name}", rows,
                 header=f"Ablation A2 — flow-mask mapping ({dataset_name}, {conv.upper()})")
