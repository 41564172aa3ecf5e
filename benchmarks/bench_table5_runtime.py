"""Table V: mean per-instance running time of every method.

The paper's headline: Revelio's runtime sits near GNNExplainer's (both are
``O(T·T_Φ)``-dominated) while the other flow-based methods (GNN-LRP,
FlowX) and SubgraphX scale with the number of flows. PGExplainer reports
training time separately from per-instance inference, as in the paper.
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentConfig, run_runtime_experiment
from repro.eval.experiments import ALL_METHODS

from conftest import bench_convs, bench_datasets, require_no_failures, write_result

DATASETS = bench_datasets(("tree_cycles", "mutag"))
CONVS = bench_convs(("gcn",))


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("conv", CONVS)
def test_table5_column(benchmark, dataset, conv):
    """Regenerate one Table V column (all methods on one dataset)."""
    if conv == "gat" and dataset in ("ba_shapes", "tree_cycles", "ba_2motifs"):
        pytest.skip("GAT N/A on synthetic datasets (Table III)")

    def run():
        return run_runtime_experiment(dataset, conv, ALL_METHODS,
                                      config=ExperimentConfig())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    require_no_failures(result)
    rows = list(result["rows"])
    times = result["mean_seconds"]
    if "revelio" in times and "gnn_lrp" in times:
        speedup = times["gnn_lrp"] / max(times["revelio"], 1e-9)
        rows.append(f"# revelio speedup vs gnn_lrp: {speedup:.1f}x")
    if "revelio" in times and "flowx" in times:
        speedup = times["flowx"] / max(times["revelio"], 1e-9)
        rows.append(f"# revelio speedup vs flowx:   {speedup:.1f}x")
    write_result(f"table5_runtime_{dataset}_{conv}", rows,
                 header=f"Table V — mean seconds per instance ({dataset}, {conv.upper()})")
