"""Fig. 5: sensitivity of Revelio to the sparsity constraint α.

Sweeps α over {0, 0.25, 0.5, 0.75, 1.0} on one node-classification and one
graph-classification dataset (the paper uses PubMed and MUTAG) and reports
the factual and counterfactual fidelity curves; larger α should help at
higher sparsity (smaller explanatory subgraphs).
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentConfig, run_alpha_sensitivity

from conftest import bench_datasets, full_grid, require_no_failures, write_result

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DATASETS = bench_datasets(("pubmed", "mutag") if full_grid() else ("tree_cycles", "mutag"))


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_fig5_alpha(benchmark, dataset, mode):
    """Regenerate one Fig. 5 panel (α sweep for one dataset/mode)."""
    def run():
        return run_alpha_sensitivity(dataset, "gcn", alphas=ALPHAS, mode=mode,
                                     config=ExperimentConfig())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    require_no_failures(result)
    metric = "Fidelity−" if mode == "factual" else "Fidelity+"
    write_result(f"fig5_alpha_{dataset}_{mode}", result["rows"],
                 header=f"Fig. 5 — {metric} vs sparsity for α sweep ({dataset}, GCN)")
