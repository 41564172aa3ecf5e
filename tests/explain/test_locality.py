"""Locality oracle: explaining the receptive field equals explaining the graph.

An L-layer GNN's prediction at a node depends only on the node's L-hop
incoming neighborhood (DESIGN.md §13). So every registered explainer,
run on ``extract_receptive_field(graph, target, L).subgraph`` with the
target's local id, must return the full-graph explanation once its
local edge scores are scattered back through ``field.edge_positions``:
within 1e-8 (observed: exactly equal), with the same predicted class and
the same context — for every explainer, node and link targets, both
modes.
"""

import numpy as np
import pytest

from repro.datasets import cora
from repro.explain import EXPLAINERS, ExplainTarget, make_explainer
from repro.graph import extract_receptive_field
from repro.nn.models import build_model

LOCALITY_TOL = 1e-8

#: Small-budget hyperparameters per method — locality is exact regardless
#: of the budget, so the sweep runs the cheapest configuration of each.
FAST = {
    "gnnexplainer": {"epochs": 8},
    "pgexplainer": {"epochs": 6},
    "graphmask": {"epochs": 6},
    "pgm_explainer": {"num_samples": 15},
    "subgraphx": {"rollouts": 3},
    "flowx": {"samples": 2},
    "deeplift": {},
    "gradcam": {},
    "gnn_lrp": {},
    "random": {},
    "relevant_walks": {},
    "revelio": {"epochs": 8},
    "revelio_topk": {"epochs": 8, "k": 8},
}

ALL_NAMES = sorted(set(EXPLAINERS) | {"revelio", "revelio_topk"})


def _lift(field, local_scores: np.ndarray, num_edges: int) -> np.ndarray:
    """Scatter per-field-edge scores into the full graph's edge space."""
    scores = np.zeros(num_edges)
    scores[field.edge_positions] = local_scores
    return scores


@pytest.fixture(scope="module")
def small_cora():
    ds = cora(scale=0.12, seed=0)
    # Untrained weights: locality is a property of the forward machinery,
    # not the fit, and skipping training keeps the sweep fast.
    model = build_model("gcn", "node", ds.graph.num_features, ds.num_classes,
                        rng=0)
    target = int(np.flatnonzero(ds.graph.in_degree() >= 2)[5])
    return ds.graph, model, target


def test_registry_is_fully_swept():
    """A newly registered explainer must be added to the locality sweep."""
    assert set(ALL_NAMES) == set(FAST)


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_node_locality(small_cora, name, mode):
    graph, model, target = small_cora
    kwargs = FAST[name]
    full_explainer = make_explainer(name, model, seed=3, **kwargs)
    local_explainer = make_explainer(name, model, seed=3, **kwargs)
    if hasattr(full_explainer, "fit"):
        # Group-fit methods are deterministic at explain time; share one
        # fitted instance so both sides query the same trained masks.
        instances = full_explainer.prepare_instances(graph, [ExplainTarget.node(target)])
        full_explainer.fit(instances, mode=mode)
        local_explainer = full_explainer

    field = extract_receptive_field(graph, [target], model.num_layers)
    full = full_explainer.explain(graph, ExplainTarget.node(target), mode=mode)
    local = local_explainer.explain(
        field.subgraph, ExplainTarget.node(int(field.local_index(target))), mode=mode)

    assert local.predicted_class == full.predicted_class
    diff = float(np.abs(full.edge_scores
                        - _lift(field, local.edge_scores, graph.num_edges)).max())
    assert diff <= LOCALITY_TOL, f"{name}/{mode}: max diff {diff}"
    assert (np.sort(field.node_ids[local.context_node_ids])
            == np.sort(full.context_node_ids)).all()


@pytest.mark.parametrize("mode", ["factual", "counterfactual"])
def test_link_locality(mode):
    from repro.core import LinkRevelio
    from repro.graph import Graph, sbm_edges
    from repro.nn import LinkPredictor, train_link_predictor

    rng = np.random.default_rng(0)
    edges = sbm_edges([15, 15], 0.4, 0.02, rng=rng)
    y = np.array([0] * 15 + [1] * 15)
    x = rng.normal(size=(30, 6)) + y[:, None]
    graph = Graph(edge_index=edges, x=x, y=y)
    model = LinkPredictor("gcn", 6, 16, rng=0)
    train_link_predictor(model, graph, epochs=30, rng=0)
    u, v = (int(i) for i in graph.edge_index[:, 0])

    # Both endpoints go into one union extraction, as LinkRevelio makes it.
    field = extract_receptive_field(graph, [u, v], model.num_layers)
    lu, lv = field.local_targets
    full = LinkRevelio(model, epochs=10, seed=4).explain(
        graph, ExplainTarget.link(u, v), mode=mode)
    local = LinkRevelio(model, epochs=10, seed=4).explain(
        field.subgraph, ExplainTarget.link(lu, lv), mode=mode)

    diff = float(np.abs(full.edge_scores
                        - _lift(field, local.edge_scores, graph.num_edges)).max())
    assert diff <= LOCALITY_TOL, f"link/{mode}: max diff {diff}"
    assert local.meta["p_link"] == pytest.approx(full.meta["p_link"],
                                                 abs=LOCALITY_TOL)
