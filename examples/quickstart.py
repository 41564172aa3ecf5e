"""Quickstart: explain one GNN prediction with Revelio in ~30 lines.

Trains (or loads from cache) a 3-layer GCN on the BA-Shapes synthetic
benchmark, explains one motif node's prediction at message-flow
granularity, and prints the top flows and the transferred edge importance.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Revelio
from repro.explain import ExplainTarget
from repro.nn import get_model
from repro.viz import format_top_flows, render_explanation


def main() -> None:
    # 1. A pretrained target model (trained on first call, cached after).
    model, dataset, trained = get_model("ba_shapes", "gcn", scale=0.3, seed=0)
    if trained is not None:
        print(f"trained target model: {trained}")
    graph = dataset.graph

    # 2. Pick a motif node the model classifies correctly.
    predictions = model.predict(graph)
    node = next(int(v) for v in dataset.motif_nodes
                if predictions[v] == graph.y[v])
    print(f"explaining node {node} "
          f"(label={graph.y[node]}, predicted={predictions[node]})")

    # 3. Explain it: Revelio learns one mask per message flow.
    explainer = Revelio(model, epochs=300, lr=1e-2, alpha=0.05, seed=0)
    explanation = explainer.explain(graph, target=ExplainTarget.node(node))

    # 4. The result, at both granularities.
    print()
    print(format_top_flows(explanation, k=10,
                           title=f"top-10 message flows into node {node}:"))
    print()
    print(render_explanation(graph, explanation, k=8))


if __name__ == "__main__":
    main()
