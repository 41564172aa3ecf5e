"""LinkRevelio: flow explanations for link predictions."""

import numpy as np
import pytest

from repro.core import LinkRevelio
from repro.errors import ExplainerError
from repro.explain import ExplainTarget
from repro.graph import Graph, extract_receptive_field, sbm_edges
from repro.nn import LinkPredictor, train_link_predictor


@pytest.fixture(scope="module")
def link_setup():
    rng = np.random.default_rng(0)
    edges = sbm_edges([15, 15], 0.4, 0.02, rng=rng)
    y = np.array([0] * 15 + [1] * 15)
    x = rng.normal(size=(30, 6)) + y[:, None]
    graph = Graph(edge_index=edges, x=x, y=y)
    model = LinkPredictor("gcn", 6, 16, rng=0)
    train_link_predictor(model, graph, epochs=60, rng=0)
    # a high-probability same-block link
    pairs = graph.edge_index.T
    probs = model.predict_proba(graph, pairs)
    best = pairs[int(np.argmax(probs))]
    return graph, model, int(best[0]), int(best[1])


class TestLinkRevelio:
    def test_explains_link(self, link_setup):
        graph, model, u, v = link_setup
        explainer = LinkRevelio(model, epochs=30, seed=0)
        e = explainer.explain(graph, ExplainTarget.link(u, v))
        assert e.method == "link_revelio"
        assert e.edge_scores.shape == (graph.num_edges,)
        assert e.meta["link"] == (u, v)
        assert 0.0 <= e.meta["p_link"] <= 1.0

    def test_p_link_is_the_full_graph_probability(self, link_setup):
        """p_link comes from the link context, whose forward is exact."""
        from repro.explain import ExplainTarget

        graph, model, u, v = link_setup
        e = LinkRevelio(model, epochs=2, seed=0).explain(graph, ExplainTarget.link(u, v))
        full = float(model.predict_proba(graph, np.array([[u, v]]))[0])
        assert abs(e.meta["p_link"] - full) <= 1e-12

    def test_flows_end_at_an_endpoint(self, link_setup):
        graph, model, u, v = link_setup
        e = LinkRevelio(model, epochs=15, seed=0).explain(graph, ExplainTarget.link(u, v))
        ends = e.context_node_ids[e.flow_index.nodes[:, -1]]
        assert set(ends.tolist()) <= {u, v}
        assert u in ends and v in ends  # both endpoints covered

    def test_counterfactual_mode(self, link_setup):
        graph, model, u, v = link_setup
        e = LinkRevelio(model, epochs=15, seed=0).explain(graph, ExplainTarget.link(u, v),
                                                          mode="counterfactual")
        assert e.mode == "counterfactual"
        assert np.isfinite(e.edge_scores).all()

    def test_factual_learning_raises_link_probability(self, link_setup):
        """The masked link probability under the learned masks must beat
        the all-0.5 initialization mask (Eq. 1 semantics for links)."""
        from repro.autograd import Tensor, no_grad

        graph, model, u, v = link_setup
        explainer = LinkRevelio(model, epochs=60, lr=0.05, alpha=0.0, seed=0)
        context = extract_receptive_field(graph, [u, v], model.num_layers)
        subgraph, (lu, lv) = context.subgraph, context.local_targets
        e = explainer.explain(graph, ExplainTarget.link(u, v))

        def masked_p(mask_rows):
            with no_grad():
                masks = [Tensor(mask_rows[l]) for l in range(model.num_layers)]
                logit = model.link_logits(subgraph, np.array([[lu, lv]]),
                                          edge_masks=masks)
                return float(logit.sigmoid().numpy()[0])

        p_learned = masked_p(e.layer_edge_scores)
        p_init = masked_p(np.full_like(e.layer_edge_scores, 0.5))
        assert p_learned > p_init

    def test_bad_mode(self, link_setup):
        graph, model, u, v = link_setup
        with pytest.raises(ExplainerError):
            LinkRevelio(model, epochs=5).explain(graph, ExplainTarget.link(u, v), mode="why")

    def test_bad_node(self, link_setup):
        graph, model, u, _ = link_setup
        with pytest.raises(ExplainerError):
            LinkRevelio(model, epochs=5).explain(graph, ExplainTarget.link(u, 10**6))

    def test_deterministic(self, link_setup):
        graph, model, u, v = link_setup
        e1 = LinkRevelio(model, epochs=10, seed=4).explain(graph, ExplainTarget.link(u, v))
        e2 = LinkRevelio(model, epochs=10, seed=4).explain(graph, ExplainTarget.link(u, v))
        assert np.allclose(e1.edge_scores, e2.edge_scores)

    def test_scores_zero_outside_context(self, link_setup):
        graph, model, u, v = link_setup
        e = LinkRevelio(model, epochs=10, seed=0).explain(graph, ExplainTarget.link(u, v))
        outside = np.setdiff1d(np.arange(graph.num_edges), e.context_edge_positions)
        assert np.allclose(e.edge_scores[outside], 0.0)

    def test_top_flows_translated(self, link_setup):
        graph, model, u, v = link_setup
        e = LinkRevelio(model, epochs=10, seed=0).explain(graph, ExplainTarget.link(u, v))
        for seq, _ in e.top_flows(5):
            assert seq[-1] in (u, v)

    def test_self_link_counts_each_flow_once(self, link_setup):
        """A self-link's two endpoints share one flow set, so Eq. 5 sees
        each flow under a single mask."""
        from repro.flows import enumerate_flows

        graph, model, u, _ = link_setup
        e = LinkRevelio(model, epochs=2, seed=0).explain(graph, ExplainTarget.link(u, u))
        single = enumerate_flows(graph, model.num_layers, target=u)
        assert e.flow_index.num_flows == single.num_flows
        assert len(np.unique(e.flow_index.nodes, axis=0)) == e.flow_index.num_flows
