"""A small explainability study: agreement, stability and concentration.

Goes beyond single-instance explanation: runs four methods over a panel of
instances and asks the questions a practitioner would before trusting an
explainer in production —

* do the methods agree with each other? (agreement matrix)
* is each method stable under its own randomness? (seed stability)
* how concentrated are the explanations? (mass on top-k edges)
* how much explanation mass flows through the known ground truth?

Run:  python examples/method_comparison_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    agreement_matrix,
    explanation_concentration,
    mass_through_nodes,
    seed_stability,
)
from repro.core import Revelio
from repro.explain import ExplainTarget, make_explainer
from repro.nn import get_model

METHODS = ("gradcam", "gnnexplainer", "flowx", "revelio")
CONFIG = {
    "gnnexplainer": {"epochs": 150},
    "flowx": {"samples": 3, "finetune_epochs": 60},
    "revelio": {"epochs": 150},
}


def main() -> None:
    model, dataset, _ = get_model("tree_cycles", "gcn", scale=0.4, seed=0)
    graph = dataset.graph
    predictions = model.predict(graph)
    panel = [int(v) for v in dataset.motif_nodes
             if predictions[v] == graph.y[v]][:5]
    print(f"instance panel: {panel}\n")

    # ------------------------------------------------------------------
    # 1. Method agreement on one instance.
    # ------------------------------------------------------------------
    target = ExplainTarget.node(panel[0])
    explanations = []
    for method in METHODS:
        explainer = make_explainer(method, model, seed=0, **CONFIG.get(method, {}))
        explanations.append(explainer.explain(graph, target=target))
    matrix, names = agreement_matrix(explanations, k=10)
    print("top-10 edge agreement (Jaccard):")
    header = " " * 14 + " ".join(f"{n[:9]:>9}" for n in names)
    print(header)
    for name, row in zip(names, matrix):
        print(f"{name:<14}" + " ".join(f"{v:>9.2f}" for v in row))
    print()

    # ------------------------------------------------------------------
    # 2. Seed stability of the learning-based methods.
    # ------------------------------------------------------------------
    print("seed stability (3 seeds, same instance):")
    for method in ("gnnexplainer", "revelio"):
        report = seed_stability(
            lambda seed: make_explainer(method, model, seed=seed,
                                        **CONFIG.get(method, {})),
            graph, target=target, num_seeds=3)
        print(f"  {method:<14} {report}")
    print()

    # ------------------------------------------------------------------
    # 3. Concentration and ground-truth mass across the panel.
    # ------------------------------------------------------------------
    motif_nodes = set(dataset.motif_nodes.tolist())
    revelio = Revelio(model, epochs=150, seed=0)
    concentrations, masses = [], []
    for v in panel:
        e = revelio.explain(graph, target=ExplainTarget.node(v))
        concentrations.append(explanation_concentration(e, k=10))
        masses.append(mass_through_nodes(e, motif_nodes))
    print("revelio across the panel:")
    print(f"  mean top-10 concentration: {np.mean(concentrations):.2f}")
    print(f"  mean flow mass through motif nodes: {np.mean(masses):.2f}")


if __name__ == "__main__":
    main()
