"""Extension bench: flow explanations for link prediction.

Trains a link predictor on a two-community interaction graph, explains the
strongest predicted missing links with LinkRevelio, and measures whether
the factual explanations are community-consistent (flow mass inside the
endpoints' community) and whether counterfactual removals actually lower
the link probability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import mass_through_nodes
from repro.core import LinkRevelio
from repro.eval.sparsity import select_explanatory_edges
from repro.explain import ExplainTarget
from repro.graph import Graph, sbm_edges
from repro.nn import LinkPredictor, sample_negative_edges, train_link_predictor

from conftest import write_result


def test_link_prediction_extension(benchmark):
    """Train, recommend, explain, verify — the full link pipeline."""
    rng = np.random.default_rng(0)
    edges = sbm_edges([25, 25], 0.3, 0.02, rng=rng)
    communities = np.array([0] * 25 + [1] * 25)
    x = rng.normal(size=(50, 8)) + communities[:, None] * 1.5
    graph = Graph(edge_index=edges, x=x, y=communities)

    model = LinkPredictor("gcn", 8, 16, rng=0)
    result = train_link_predictor(model, graph, epochs=80, rng=0)

    def run():
        rows = [f"link predictor: {result}", ""]
        candidates = sample_negative_edges(graph, 150, rng=1)
        probs = model.predict_proba(graph, candidates)
        top = candidates[np.argsort(-probs)[:3]]

        rows.append(f"{'link':>10} {'p':>6} {'community':>10} "
                    f"{'mass_in_comm':>13} {'p_after_cf':>11}")
        explainer = LinkRevelio(model, epochs=150, seed=0)
        for u, v in top:
            u, v = int(u), int(v)
            p = float(model.predict_proba(graph, np.array([[u, v]]))[0])
            link = ExplainTarget.link(u, v)
            factual = explainer.explain(graph, link)
            counterfactual = explainer.explain(graph, link, mode="counterfactual")

            community = {int(n) for n in np.flatnonzero(communities == communities[u])}
            mass = mass_through_nodes(factual, community)

            chosen = select_explanatory_edges(
                counterfactual.edge_scores, 0.7,
                candidate_edges=counterfactual.context_edge_positions)
            keep = np.ones(graph.num_edges, dtype=bool)
            keep[chosen] = False
            p_after = float(model.predict_proba(graph.with_edges(keep),
                                                np.array([[u, v]]))[0])
            same = "same" if communities[u] == communities[v] else "cross"
            rows.append(f"{u:>4} -> {v:<3} {p:>6.3f} {same:>10} "
                        f"{mass:>13.2f} {p_after:>11.3f}")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result("extension_link_prediction", rows,
                 header="Extension — LinkRevelio on recommended links")
