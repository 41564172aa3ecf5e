"""Wildcard flow-pattern queries (paper §III notation)."""

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flows import enumerate_flows, match_flows
from repro.flows.patterns import parse_pattern
from repro.graph import Graph


@pytest.fixture
def flows():
    g = Graph(edge_index=np.array([[0, 1, 1, 2], [1, 0, 2, 1]]), x=np.ones((3, 2)))
    return enumerate_flows(g, 3, target=1)


class TestParsing:
    def test_ints_and_wildcards(self):
        p = parse_pattern("3 * ? 7")
        assert p.tokens == (3, "*", "?", 7)

    def test_repetition(self):
        p = parse_pattern("?{2} 4 5 *")
        assert p.tokens == (("?", 2), 4, 5, "*")

    def test_bad_token(self):
        with pytest.raises(FlowError):
            parse_pattern("abc")

    def test_empty(self):
        with pytest.raises(FlowError):
            parse_pattern("   ")

    def test_negative_repetition(self):
        with pytest.raises(FlowError):
            parse_pattern("?{-1}")

    def test_str_roundtrip(self):
        p = parse_pattern("?{2} 4 *")
        assert str(p) == "?{2} 4 *"


class TestMatching:
    def test_star_endpoints(self, flows):
        # F_{0*1}: start at 0, end at 1
        hits = match_flows(flows, "0 * 1")
        assert len(hits) > 0
        for f in hits:
            assert flows.nodes[f, 0] == 0
            assert flows.nodes[f, -1] == 1

    def test_exact_sequence(self, flows):
        seq = flows.nodes[0]
        pattern = " ".join(str(int(v)) for v in seq)
        hits = match_flows(flows, pattern)
        assert len(hits) >= 1
        assert 0 in hits

    def test_question_single_node(self, flows):
        # flows whose second node is 2 and ending at 1
        hits = match_flows(flows, "? 2 ? 1")
        for f in hits:
            assert flows.nodes[f, 1] == 2

    def test_repetition_prefix(self, flows):
        # F_{?{2}21}: third step on edge 2->1 (paper's third-step notation)
        hits = match_flows(flows, "?{2} 2 1")
        for f in hits:
            assert flows.nodes[f, 2] == 2 and flows.nodes[f, 3] == 1

    def test_star_matches_empty(self, flows):
        # "* <full sequence>" must still match
        seq = flows.nodes[0]
        pattern = "* " + " ".join(str(int(v)) for v in seq)
        assert 0 in match_flows(flows, pattern)

    def test_too_many_fixed_tokens(self, flows):
        assert match_flows(flows, "1 1 1 1 1 1 1").size == 0

    def test_all_wildcard_matches_everything(self, flows):
        assert match_flows(flows, "*").size == flows.num_flows

    def test_no_match(self, flows):
        # node 99 does not exist
        assert match_flows(flows, "99 * 1").size == 0

    def test_pattern_object_accepted(self, flows):
        p = parse_pattern("* 1")
        assert match_flows(flows, p).size == flows.num_flows  # all end at 1
