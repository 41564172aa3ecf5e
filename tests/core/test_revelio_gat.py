"""Model-agnosticism: Revelio on GAT targets (where GNN-LRP cannot run).

The paper emphasizes Revelio applies "to any GNNs with the fundamental
message passing architecture" while GNN-LRP is restricted (§V-A). These
tests pin that compatibility surface.
"""

import numpy as np
import pytest

from repro.core import Revelio, TopKRevelio
from repro.datasets import citation_surrogate, mutag
from repro.errors import ExplainerError
from repro.explain import ExplainTarget, FlowX, GNNExplainer, GNNLRP
from repro.nn import Trainer, build_model


@pytest.fixture(scope="module")
def gat_setup():
    ds = citation_surrogate("mini_cite", 60, 240, 16, 3, seed=0)
    model = build_model("gat", "node", 16, 3, hidden=16, rng=0)
    Trainer(model, epochs=60, patience=None).fit_node(ds.graph)
    model.eval()
    return ds, model


class TestRevelioOnGAT:
    def test_explains_gat_node_model(self, gat_setup):
        ds, model = gat_setup
        e = Revelio(model, epochs=15, seed=0).explain(ds.graph, target=ExplainTarget.node(5))
        assert np.isfinite(e.edge_scores).all()
        assert e.flow_scores is not None

    def test_topk_on_gat(self, gat_setup):
        ds, model = gat_setup
        e = TopKRevelio(model, k=8, epochs=10, seed=0).explain(ds.graph, target=ExplainTarget.node(5))
        assert e.meta["params"]["k"] == 8

    def test_counterfactual_on_gat(self, gat_setup):
        ds, model = gat_setup
        e = Revelio(model, epochs=10, seed=0).explain(ds.graph, target=ExplainTarget.node(5),
                                                      mode="counterfactual")
        assert e.mode == "counterfactual"

    def test_flowx_on_gat(self, gat_setup):
        ds, model = gat_setup
        e = FlowX(model, samples=1, finetune_epochs=5, seed=0).explain(
            ds.graph, target=ExplainTarget.node(5))
        assert np.isfinite(e.edge_scores).all()

    def test_gnnexplainer_on_gat(self, gat_setup):
        ds, model = gat_setup
        e = GNNExplainer(model, epochs=10).explain(ds.graph, target=ExplainTarget.node(5))
        assert np.isfinite(e.edge_scores).all()

    def test_gnn_lrp_rejects_gat(self, gat_setup):
        _, model = gat_setup
        with pytest.raises(ExplainerError):
            GNNLRP(model)


class TestRevelioOnGATGraphTask:
    def test_graph_classification_gat(self):
        ds = mutag(scale=0.12, seed=0)
        model = build_model("gat", "graph", ds.num_features, ds.num_classes,
                            hidden=16, rng=0)
        Trainer(model, epochs=30, patience=None).fit_graphs(ds.graphs,
                                                            batch_size=64, rng=0)
        model.eval()
        e = Revelio(model, epochs=10, seed=0).explain(ds.graphs[0])
        assert e.edge_scores.shape == (ds.graphs[0].num_edges,)
