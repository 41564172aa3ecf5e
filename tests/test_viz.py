"""Visualization: flow tables and ASCII rendering."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explain.base import Explanation
from repro.flows import enumerate_flows
from repro.graph import Graph
from repro.viz import (
    explanation_summary,
    format_flow_comparison,
    format_top_flows,
    render_explanation,
)


@pytest.fixture
def graph():
    return Graph(edge_index=np.array([[0, 1, 2, 3], [1, 2, 3, 0]]),
                 x=np.ones((4, 2)), motif_edges={(0, 1), (1, 2)})


@pytest.fixture
def flow_explanation(graph):
    fi = enumerate_flows(graph, 2, target=2)
    scores = np.linspace(-0.5, 0.9, fi.num_flows)
    return Explanation(edge_scores=np.array([0.9, 0.8, 0.1, 0.2]),
                       predicted_class=1, method="revelio", target=2,
                       flow_scores=scores, flow_index=fi)


class TestFlowTables:
    def test_format_top_flows(self, flow_explanation):
        text = format_top_flows(flow_explanation, k=3)
        assert "Message Flow" in text
        assert "->" in text
        assert len(text.splitlines()) == 4  # header + 3 rows

    def test_title_included(self, flow_explanation):
        assert "[revelio]" in format_top_flows(flow_explanation, k=2, title="[revelio]")

    def test_scores_sorted_descending(self, flow_explanation):
        lines = format_top_flows(flow_explanation, k=5).splitlines()[1:]
        values = [float(l.rsplit(None, 1)[1]) for l in lines]
        assert values == sorted(values, reverse=True)

    def test_requires_flow_scores(self, graph):
        e = Explanation(edge_scores=np.zeros(4), predicted_class=0, method="gradcam")
        with pytest.raises(ExplainerError):
            format_top_flows(e)

    def test_comparison_side_by_side(self, flow_explanation):
        text = format_flow_comparison([flow_explanation, flow_explanation], k=2)
        assert text.count("|") >= 3
        assert "[revelio]" in text


class TestAsciiRendering:
    def test_render_marks_motif_edges(self, graph, flow_explanation):
        text = render_explanation(graph, flow_explanation, k=2)
        assert "**" in text  # top edges 0,1 are motif edges

    def test_render_reports_missed(self, graph):
        e = Explanation(edge_scores=np.array([0.0, 0.0, 0.9, 0.9]),
                        predicted_class=0, method="bad")
        text = render_explanation(graph, e, k=2)
        assert "missed motif edges" in text
        assert "!!" in text

    def test_render_all_recognized(self, graph):
        e = Explanation(edge_scores=np.array([0.9, 0.8, 0.0, 0.0]),
                        predicted_class=0, method="good")
        assert "all motif edges recognized" in render_explanation(graph, e, k=2)

    def test_summary_counts(self, graph, flow_explanation):
        summary = explanation_summary(graph, flow_explanation, k=2)
        assert summary["top_in_motif"] == 2
        assert summary["motif_size"] == 2

    def test_render_without_motif(self):
        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 1)))
        e = Explanation(edge_scores=np.array([0.5]), predicted_class=0, method="x")
        text = render_explanation(g, e, k=1)
        assert "0 -> 1" in text.replace("   ", " ").replace("  ", " ")
