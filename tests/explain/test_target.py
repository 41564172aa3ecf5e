"""ExplainTarget: the single target vocabulary of the explanation API."""

import pytest

from repro.errors import ExplainerError
from repro.explain import ExplainTarget, as_node_id
from repro.explain.target import require_target


class TestConstructors:
    def test_node(self):
        t = ExplainTarget.node(412)
        assert t.kind == "node" and t.ids == (412,)
        assert t.node_id == 412

    def test_link(self):
        t = ExplainTarget.link(3, 7)
        assert t.kind == "link" and t.ids == (3, 7)
        assert t.endpoints == (3, 7)

    def test_graph(self):
        assert ExplainTarget.graph().graph_index == 0
        assert ExplainTarget.graph(5).graph_index == 5

    def test_numpy_integers_accepted(self):
        import numpy as np

        assert ExplainTarget.node(np.int64(9)).node_id == 9

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(ExplainerError):
            ExplainTarget.node(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExplainerError, match="unknown target kind"):
            ExplainTarget("edge", (1,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ExplainerError):
            ExplainTarget("link", (1,))
        with pytest.raises(ExplainerError):
            ExplainTarget("node", (1, 2))

    def test_frozen_and_hashable(self):
        t = ExplainTarget.node(4)
        assert t == ExplainTarget.node(4)
        assert hash(t) == hash(ExplainTarget.node(4))
        with pytest.raises(AttributeError):
            t.kind = "graph"

    def test_wrong_kind_views_raise(self):
        with pytest.raises(ExplainerError):
            ExplainTarget.link(1, 2).node_id
        with pytest.raises(ExplainerError):
            ExplainTarget.node(1).endpoints
        with pytest.raises(ExplainerError):
            ExplainTarget.node(1).graph_index

    def test_describe(self):
        assert ExplainTarget.node(412).describe() == "node:412"
        assert str(ExplainTarget.link(3, 7)) == "link:3-7"


class TestWireCodec:
    @pytest.mark.parametrize("target", [
        ExplainTarget.node(0), ExplainTarget.link(3, 7), ExplainTarget.graph(2),
    ])
    def test_round_trip(self, target):
        assert ExplainTarget.from_wire(target.to_wire()) == target

    def test_shorthand_forms(self):
        assert ExplainTarget.from_wire({"node": 4}) == ExplainTarget.node(4)
        assert ExplainTarget.from_wire({"link": [3, 7]}) == ExplainTarget.link(3, 7)
        assert ExplainTarget.from_wire({"graph": 1}) == ExplainTarget.graph(1)

    def test_passthrough(self):
        t = ExplainTarget.node(1)
        assert ExplainTarget.from_wire(t) is t

    @pytest.mark.parametrize("bad", [
        7, [1, 2], {"node": 1, "link": [2, 3]}, {"edge": 4},
        {"kind": "node", "ids": 3}, {"link": [1]}, {"link": 5},
    ])
    def test_malformed_wire_rejected(self, bad):
        with pytest.raises(ExplainerError):
            ExplainTarget.from_wire(bad)


class TestRequireTarget:
    def test_bare_int_names_node_constructor(self):
        with pytest.raises(ExplainerError, match=r"pass ExplainTarget\.node\(4\)"):
            require_target(4, task="node")

    def test_bare_int_on_graph_task_names_graph_constructor(self):
        with pytest.raises(ExplainerError, match=r"pass ExplainTarget\.graph\(4\)"):
            require_target(4, task="graph")

    def test_tuple_names_link_constructor(self):
        with pytest.raises(ExplainerError, match=r"pass ExplainTarget\.link\(3, 7\)"):
            require_target((3, 7))

    def test_error_names_the_entry_point(self):
        with pytest.raises(ExplainerError, match="my_api"):
            require_target(1, task="graph", where="my_api")

    def test_passthrough(self):
        t = ExplainTarget.node(2)
        assert require_target(t) is t
        assert require_target(None) is None


class TestAsNodeId:
    def test_shapes(self):
        assert as_node_id(None) is None
        assert as_node_id(ExplainTarget.node(7)) == 7
        assert as_node_id(ExplainTarget.graph(3)) is None
        assert as_node_id(ExplainTarget.link(1, 2)) is None

    def test_bare_int_is_rejected(self):
        with pytest.raises(ExplainerError, match=r"ExplainTarget\.node\(7\)"):
            as_node_id(7)


class TestExplainerEntryPoint:
    def test_bare_int_target_names_typed_constructor(self, node_model, mini_ba_shapes,
                                                     good_motif_node):
        from repro.explain import make_explainer

        graph = mini_ba_shapes.graph
        with pytest.raises(ExplainerError, match=rf"gradcam\.explain: .*"
                           rf"ExplainTarget\.node\({good_motif_node}\)"):
            make_explainer("gradcam", node_model).explain(graph, good_motif_node)

    def test_graph_task_rejects_node_target(self, graph_model, mini_mutag):
        from repro.explain import make_explainer

        with pytest.raises(ExplainerError, match="graph"):
            make_explainer("gradcam", graph_model).explain(
                mini_mutag.graphs[0], ExplainTarget.node(0))
