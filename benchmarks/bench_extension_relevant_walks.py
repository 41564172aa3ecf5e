"""Extension bench: top-k relevant-walk search vs. exhaustive flow methods.

The related work the paper cites (sGNN-LRP, EMP/AMP) finds top-k relevant
walks without enumerating all flows. This bench measures what that buys:
per-instance runtime and top-flow agreement with GNN-LRP / Revelio, as the
instance's flow count grows.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import top_flow_overlap
from repro.core import Revelio
from repro.explain import GNNLRP, ExplainTarget, RelevantWalks
from repro.flows import count_flows
from repro.graph import Graph, erdos_renyi_edges
from repro.nn import build_model

from conftest import write_result

DENSITIES = (0.10, 0.20, 0.32)
NUM_NODES = 20


def _trained_target():
    """A briefly-trained GCN so the methods explain real reasoning."""
    from repro.graph import sbm_edges
    from repro.nn import Trainer

    rng = np.random.default_rng(0)
    edges = sbm_edges([30, 30], 0.25, 0.02, rng=rng)
    y = np.array([0] * 30 + [1] * 30)
    x = rng.normal(size=(60, 6)) + y[:, None]
    train = Graph(edge_index=edges, x=x, y=y, train_mask=np.ones(60, dtype=bool))
    model = build_model("gcn", "node", 6, 2, hidden=16, rng=0)
    Trainer(model, epochs=60, patience=None).fit_node(train)
    model.eval()
    return model


def test_relevant_walks_extension(benchmark):
    """Runtime + agreement sweep for the walk-search extension."""
    rng = np.random.default_rng(0)
    model = _trained_target()

    def sweep():
        rows = [f"{'|F|':>8} {'walks(k=10)':>12} {'gnn_lrp':>10} {'revelio':>10} "
                f"{'ovl(lrp)':>9} {'ovl(rev)':>9}"]
        for p in DENSITIES:
            graph = Graph(edge_index=erdos_renyi_edges(NUM_NODES, p, rng=0),
                          x=rng.normal(size=(NUM_NODES, 6)))
            flows = count_flows(graph, 3, target=0)

            timings = {}
            explanations = {}
            for name, explainer in (
                ("walks", RelevantWalks(model, k=10)),
                ("gnn_lrp", GNNLRP(model)),
                ("revelio", Revelio(model, epochs=30, seed=0)),
            ):
                t0 = time.perf_counter()
                explanations[name] = explainer.explain(graph, target=ExplainTarget.node(0))
                timings[name] = time.perf_counter() - t0

            ovl_lrp = top_flow_overlap(explanations["walks"],
                                       explanations["gnn_lrp"], k=10)
            ovl_rev = top_flow_overlap(explanations["walks"],
                                       explanations["revelio"], k=10)
            rows.append(
                f"{flows:>8} {timings['walks']:>11.3f}s {timings['gnn_lrp']:>9.3f}s "
                f"{timings['revelio']:>9.3f}s {ovl_lrp:>9.2f} {ovl_rev:>9.2f}"
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result("extension_relevant_walks", rows,
                 header="Extension — top-k relevant-walk search vs exhaustive flow methods")
