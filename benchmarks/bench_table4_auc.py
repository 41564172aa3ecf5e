"""Table IV: explanation AUC against planted motifs on synthetic datasets.

Instances are motif nodes/graphs the model classifies correctly; each
method's edge ranking is scored against the ground-truth motif edges. The
paper's shape: FlowX and Revelio lead, with Revelio the most consistent.
Both the factual and counterfactual blocks are regenerated.
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentConfig, run_auc_experiment
from repro.eval.experiments import ALL_METHODS, COUNTERFACTUAL_METHODS

from conftest import bench_convs, bench_datasets, require_no_failures, write_result

DATASETS = tuple(d for d in bench_datasets(("ba_shapes", "tree_cycles", "ba_2motifs"))
                 if d in ("ba_shapes", "tree_cycles", "ba_2motifs"))
CONVS = tuple(c for c in bench_convs(("gcn", "gin")) if c != "gat")


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("conv", CONVS)
def test_table4_cell(benchmark, dataset, conv):
    """Regenerate one Table IV column (factual + counterfactual blocks)."""
    def run():
        factual = run_auc_experiment(dataset, conv, ALL_METHODS, mode="factual",
                                     config=ExperimentConfig())
        counter = run_auc_experiment(dataset, conv, COUNTERFACTUAL_METHODS,
                                     mode="counterfactual",
                                     config=ExperimentConfig())
        return factual, counter

    factual, counter = benchmark.pedantic(run, rounds=1, iterations=1)
    require_no_failures(factual, counter)
    rows = ["-- factual explanation --", *factual["rows"],
            "-- counterfactual explanation --", *counter["rows"]]
    write_result(f"table4_auc_{dataset}_{conv}", rows,
                 header=f"Table IV — explanation AUC ({dataset}, {conv.upper()})")
