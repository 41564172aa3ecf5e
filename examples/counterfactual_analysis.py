"""Counterfactual explanation: which message flows, if removed, flip the
prediction?

The paper's traffic-network framing: factual explanations answer "which
flows are sufficient to trigger the jam?", counterfactual explanations
answer "which flows, if removed, would prevent it?". This example runs
both modes of Revelio on the same Tree-Cycles node, verifies the learned
counterfactual mask actually destroys the prediction (Eq. 2 doing its
job), and sweeps Fidelity± across sparsity levels.

Run:  python examples/counterfactual_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import Revelio
from repro.eval import Instance, class_probability, fidelity_minus, fidelity_plus
from repro.eval.sparsity import unexplanatory_subgraph
from repro.explain import ExplainTarget
from repro.nn import get_model
from repro.viz import format_top_flows


def main() -> None:
    model, dataset, trained = get_model("tree_cycles", "gcn", scale=0.4, seed=0)
    if trained is not None:
        print(f"trained target model: {trained}")
    graph = dataset.graph

    predictions = model.predict(graph)
    node = next(int(v) for v in dataset.motif_nodes
                if predictions[v] == graph.y[v] == 1)
    target = ExplainTarget.node(node)
    p_original = class_probability(model, graph, 1, target=target)
    print(f"node {node} is on a cycle motif; P(cycle) = {p_original:.3f}\n")

    explainer = Revelio(model, epochs=300, lr=1e-2, alpha=0.05, seed=0)

    factual = explainer.explain(graph, target=target, mode="factual")
    counterfactual = explainer.explain(graph, target=target, mode="counterfactual")

    print(format_top_flows(factual, k=6,
                           title="factual: flows SUFFICIENT for the prediction"))
    print()
    print(format_top_flows(counterfactual, k=6,
                           title="counterfactual: flows NECESSARY for the prediction"))
    print()

    # Demonstrate the counterfactual semantics end to end: remove the
    # counterfactual explanation's top edges and watch P(cycle) drop.
    instance = [Instance(graph, target)]
    print(f"{'sparsity':>9} {'Fidelity-':>10} {'Fidelity+':>10}")
    for sparsity in (0.5, 0.6, 0.7, 0.8, 0.9):
        fm = fidelity_minus(model, instance, [factual], sparsity)
        fp = fidelity_plus(model, instance, [counterfactual], sparsity)
        print(f"{sparsity:>9.1f} {fm:>+10.3f} {fp:>+10.3f}")

    perturbed = unexplanatory_subgraph(graph, counterfactual.edge_scores, 0.7,
                                       candidate_edges=counterfactual.context_edge_positions)
    p_after = class_probability(model, perturbed, 1, target=target)
    print(f"\nafter removing the top counterfactual edges: "
          f"P(cycle) {p_original:.3f} -> {p_after:.3f}")


if __name__ == "__main__":
    main()
