"""Fig. 3: Fidelity− vs. sparsity for factual explanations.

One (dataset, conv) panel per configured combination; every applicable
method contributes a sparsity curve. Lower is better; the paper's headline
shape — flow-based methods (FlowX, Revelio) at or near the bottom on most
panels — should reproduce.
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentConfig, run_fidelity_experiment
from repro.eval.experiments import FACTUAL_METHODS

from conftest import bench_convs, bench_datasets, require_no_failures, write_result

DATASETS = bench_datasets(("ba_shapes", "tree_cycles", "mutag"))
CONVS = bench_convs(("gcn",))
PANELS = [(d, c) for d in DATASETS for c in CONVS
          if not (c == "gat" and d in ("ba_shapes", "tree_cycles", "ba_2motifs"))]


@pytest.mark.parametrize("dataset,conv", PANELS)
def test_fig3_panel(benchmark, dataset, conv):
    """Regenerate one Fig. 3 panel; benchmark runs the panel once."""
    def run():
        return run_fidelity_experiment(dataset, conv, FACTUAL_METHODS,
                                       mode="factual", config=ExperimentConfig())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    require_no_failures(result)
    write_result(f"fig3_fidelity_minus_{dataset}_{conv}", result["rows"],
                 header=f"Fig. 3 — Fidelity− vs sparsity ({dataset}, {conv.upper()})")
