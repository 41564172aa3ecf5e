"""Working with message flows directly: enumeration, wildcard queries and
method comparison.

Shows the lower-level flow API the explainers are built on — the paper's
§III notation (``F_{i*j}``, ``F_{?{2}ij*}``) as executable queries — and
compares how the three flow-based methods (GNN-LRP, FlowX, Revelio) score
the same flows, mirroring the paper's Table VI analysis.

Run:  python examples/flow_queries.py
"""

from __future__ import annotations

import numpy as np

from repro import Revelio, count_flows, enumerate_flows, match_flows
from repro.explain import ExplainTarget, FlowX, GNNLRP
from repro.nn import get_model
from repro.viz import format_flow_comparison


def main() -> None:
    model, dataset, _ = get_model("ba_shapes", "gcn", scale=0.3, seed=0)
    graph = dataset.graph

    predictions = model.predict(graph)
    node = next(int(v) for v in dataset.motif_nodes
                if predictions[v] == graph.y[v])

    # ------------------------------------------------------------------
    # 1. Enumerate the flows behind this prediction.
    # ------------------------------------------------------------------
    explainer = Revelio(model, epochs=200, seed=0)
    context = explainer.node_context(graph, node)
    flows = enumerate_flows(context.subgraph, model.num_layers,
                            target=context.local_target)
    print(f"node {node}: {flows.num_flows} message flows reach it through a "
          f"{model.num_layers}-layer GNN")
    print(f"(oracle count via adjacency powers: "
          f"{count_flows(context.subgraph, model.num_layers, target=context.local_target)})")

    # ------------------------------------------------------------------
    # 2. Wildcard queries in the paper's notation.
    # ------------------------------------------------------------------
    local_target = context.local_target
    self_loop_flows = match_flows(flows, f"{local_target} * {local_target}")
    print(f"flows that start at the target itself (F_{{t*t}}): {self_loop_flows.size}")

    in_neighbors = sorted(set(
        int(context.subgraph.src[e]) for e in range(context.subgraph.num_edges)
        if context.subgraph.dst[e] == local_target
    ))
    if in_neighbors:
        v = in_neighbors[0]
        last_step = match_flows(flows, f"?{{{model.num_layers - 1}}} {v} {local_target}")
        print(f"flows taking their final step on edge {v}->{local_target} "
              f"(F_{{?{{{model.num_layers - 1}}}vt}}): {last_step.size}")

    # ------------------------------------------------------------------
    # 3. Compare the three flow-based methods on the same instance.
    # ------------------------------------------------------------------
    explanations = []
    for explainer in (GNNLRP(model),
                      FlowX(model, samples=4, finetune_epochs=60, seed=0),
                      Revelio(model, epochs=200, seed=0)):
        explanations.append(explainer.explain(graph, target=ExplainTarget.node(node)))
    print()
    print(format_flow_comparison(explanations, k=10))

    # Agreement between the rankings (paper: scales differ wildly — LRP's
    # Gradient×Input values, FlowX's tiny Shapley values, Revelio's tanh —
    # but the top flows should overlap).
    tops = [set(tuple(seq) for seq, _ in e.top_flows(10)) for e in explanations]
    names = [e.method for e in explanations]
    print()
    for i in range(len(tops)):
        for j in range(i + 1, len(tops)):
            overlap = len(tops[i] & tops[j])
            print(f"top-10 overlap {names[i]} vs {names[j]}: {overlap}/10")


if __name__ == "__main__":
    main()
