"""Fig. 4: Fidelity+ vs. sparsity for counterfactual explanations.

Methods with a counterfactual objective (GNNExplainer, PGExplainer,
GraphMask, FlowX, Revelio) re-optimize against Eq. (2)/(9); gradient /
search methods reuse their factual scores, as in the paper. Higher is
better.
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentConfig, run_fidelity_experiment
from repro.eval.experiments import ALL_METHODS

from conftest import bench_convs, bench_datasets, require_no_failures, write_result

DATASETS = bench_datasets(("ba_shapes", "tree_cycles", "mutag"))
CONVS = bench_convs(("gcn",))
PANELS = [(d, c) for d in DATASETS for c in CONVS
          if not (c == "gat" and d in ("ba_shapes", "tree_cycles", "ba_2motifs"))]


@pytest.mark.parametrize("dataset,conv", PANELS)
def test_fig4_panel(benchmark, dataset, conv):
    """Regenerate one Fig. 4 panel."""
    def run():
        return run_fidelity_experiment(dataset, conv, ALL_METHODS,
                                       mode="counterfactual",
                                       config=ExperimentConfig())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    require_no_failures(result)
    write_result(f"fig4_fidelity_plus_{dataset}_{conv}", result["rows"],
                 header=f"Fig. 4 — Fidelity+ vs sparsity ({dataset}, {conv.upper()})")
