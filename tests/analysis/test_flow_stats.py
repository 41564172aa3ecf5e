"""Flow-mass statistics over explanations."""

import numpy as np
import pytest

from repro.analysis import explanation_concentration, mass_through_nodes
from repro.errors import EvaluationError
from repro.explain.base import Explanation
from repro.flows import enumerate_flows
from repro.graph import Graph


@pytest.fixture
def star_flows():
    # star into node 0: several length-2 flows share the final edges
    g = Graph(edge_index=np.array([[1, 2, 3, 1], [0, 0, 0, 2]]), x=np.ones((4, 2)))
    return g, enumerate_flows(g, 2, target=0)


class TestMass:
    def test_mass_through_all_nodes_is_one(self, star_flows):
        g, fi = star_flows
        e = Explanation(edge_scores=np.zeros(g.num_edges), predicted_class=0,
                        method="t", flow_scores=np.ones(fi.num_flows), flow_index=fi)
        assert mass_through_nodes(e, set(range(g.num_nodes))) == pytest.approx(1.0)

    def test_mass_through_disjoint_nodes_zero(self, star_flows):
        g, fi = star_flows
        e = Explanation(edge_scores=np.zeros(g.num_edges), predicted_class=0,
                        method="t", flow_scores=np.ones(fi.num_flows), flow_index=fi)
        assert mass_through_nodes(e, {99}) == 0.0

    def test_negative_scores_ignored(self, star_flows):
        g, fi = star_flows
        scores = -np.ones(fi.num_flows)
        e = Explanation(edge_scores=np.zeros(g.num_edges), predicted_class=0,
                        method="t", flow_scores=scores, flow_index=fi)
        assert mass_through_nodes(e, {0}) == 0.0

    def test_requires_flow_scores(self):
        e = Explanation(edge_scores=np.zeros(3), predicted_class=0, method="t")
        with pytest.raises(EvaluationError):
            mass_through_nodes(e, {0})

    def test_context_translation(self, star_flows):
        g, fi = star_flows
        ids = np.array([10, 11, 12, 13])
        e = Explanation(edge_scores=np.zeros(g.num_edges), predicted_class=0,
                        method="t", flow_scores=np.ones(fi.num_flows),
                        flow_index=fi, context_node_ids=ids)
        assert mass_through_nodes(e, {10}) == pytest.approx(1.0)  # target is 0 -> 10


class TestConcentration:
    def test_point_mass(self):
        e = Explanation(edge_scores=np.array([1.0, 0, 0, 0]), predicted_class=0,
                        method="t")
        assert explanation_concentration(e, k=1) == 1.0

    def test_uniform(self):
        e = Explanation(edge_scores=np.ones(10), predicted_class=0, method="t")
        assert explanation_concentration(e, k=5) == pytest.approx(0.5)

    def test_no_positive_mass(self):
        e = Explanation(edge_scores=-np.ones(4), predicted_class=0, method="t")
        with pytest.raises(EvaluationError):
            explanation_concentration(e)
