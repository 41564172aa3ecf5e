"""Ablation A1: the layer-weight activation choice (paper §IV-B).

The paper motivates ``exp`` over ``softplus`` (both positive; exp has the
desired gradient profile) and rules out ReLU-style activations that can
zero out masks; ``identity`` is included as the degenerate control with
uncertain signs. Compares factual Fidelity− across the sparsity grid.
"""

from __future__ import annotations

import pytest

from repro.core import LAYER_WEIGHT_ACTIVATIONS, Revelio
from repro.eval import (
    DEFAULT_SPARSITIES,
    ExperimentConfig,
    build_instances,
    fidelity_minus,
)
from repro.eval.timing import time_explainer
from repro.nn.zoo import get_model

from conftest import bench_datasets, write_result

DATASETS = bench_datasets(("ba_shapes", "ba_2motifs"))


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_ablation_layer_weight_activation(benchmark, dataset_name):
    """Fidelity− per layer-weight activation on one dataset."""
    conv = "gin" if dataset_name == "ba_2motifs" else "gcn"
    model, dataset, _ = get_model(dataset_name, conv)
    config = ExperimentConfig()
    instances = build_instances(dataset, config.resolved_instances(), seed=0)

    def run():
        rows = [f"{'activation':<12} " + "  ".join(f"s={s:.1f}" for s in DEFAULT_SPARSITIES)]
        for activation in LAYER_WEIGHT_ACTIVATIONS:
            explainer = Revelio(model, epochs=max(25, int(500 * config.resolved_effort())),
                                layer_weight_activation=activation, seed=0)
            result = time_explainer(explainer, instances)
            curve = [fidelity_minus(model, instances, result.explanations, s)
                     for s in DEFAULT_SPARSITIES]
            rows.append(f"{activation:<12} " + "  ".join(f"{v:+.3f}" for v in curve))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(f"ablation_activation_{dataset_name}", rows,
                 header=f"Ablation A1 — layer-weight activation ({dataset_name}, {conv.upper()})")
