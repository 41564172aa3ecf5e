"""Table II (empirical): runtime scaling with the number of message flows.

The complexity table predicts that GNNExplainer and Revelio are dominated
by ``O(T·T_Φ)`` — flat in |F| up to the mask bookkeeping — while GNN-LRP
grows as ``O(|F|·T_Φ)`` and FlowX as ``O(S·L·|E|·T_Φ)``. This bench sweeps
graph density so |F| grows, times one explanation per method per size, and
reports the measured growth ratios.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import Revelio
from repro.explain import ExplainTarget, FlowX, GNNLRP, GNNExplainer
from repro.flows import count_flows
from repro.graph import Graph, erdos_renyi_edges
from repro.nn import build_model

from conftest import write_result

DENSITIES = (0.08, 0.16, 0.28)
NUM_NODES = 22


def make_graph(p: float, seed: int = 0) -> Graph:
    edges = erdos_renyi_edges(NUM_NODES, p, rng=seed)
    rng = np.random.default_rng(seed)
    return Graph(edge_index=edges, x=rng.normal(size=(NUM_NODES, 6)))


def test_table2_scaling(benchmark):
    """Sweep |F| and time each method once per size."""
    model = build_model("gcn", "node", 6, 2, hidden=16, rng=0)
    model.eval()
    target = 0
    budget = dict(epochs=30)

    def sweep():
        rows = [f"{'|F|':>8} {'gnnexplainer':>13} {'gnn_lrp':>10} "
                f"{'flowx':>10} {'revelio':>10}"]
        raw = {}
        for p in DENSITIES:
            graph = make_graph(p)
            flows = count_flows(graph, 3, target=target)
            times = {}
            methods = {
                "gnnexplainer": GNNExplainer(model, epochs=30),
                "gnn_lrp": GNNLRP(model),
                "flowx": FlowX(model, samples=2, finetune_epochs=20),
                "revelio": Revelio(model, epochs=30),
            }
            for name, explainer in methods.items():
                t0 = time.perf_counter()
                explainer.explain(graph, target=ExplainTarget.node(target))
                times[name] = time.perf_counter() - t0
            raw[flows] = times
            rows.append(f"{flows:>8} {times['gnnexplainer']:>12.3f}s "
                        f"{times['gnn_lrp']:>9.3f}s {times['flowx']:>9.3f}s "
                        f"{times['revelio']:>9.3f}s")
        # growth ratio largest/smallest |F|
        sizes = sorted(raw)
        rows.append("")
        rows.append("growth ratio (largest / smallest |F|):")
        for name in ("gnnexplainer", "gnn_lrp", "flowx", "revelio"):
            ratio = raw[sizes[-1]][name] / max(raw[sizes[0]][name], 1e-9)
            rows.append(f"  {name:<13} {ratio:.1f}x")
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result("table2_scaling", rows,
                 header="Table II (empirical) — runtime vs number of flows")
