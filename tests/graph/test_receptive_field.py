"""SampledSubgraph id maps and the exact forward of extract_receptive_field."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (Graph, SampledSubgraph, extract_receptive_field,
                         khop_in_nodes)


def _ring_with_spur(num_nodes=8):
    """Directed ring 0->1->...->0 plus a spur edge 0->4 and an isolate."""
    src = list(range(num_nodes)) + [0]
    dst = [(i + 1) % num_nodes for i in range(num_nodes)] + [4]
    edge_index = np.array([src, dst])
    x = np.arange((num_nodes + 1) * 2, dtype=float).reshape(num_nodes + 1, 2)
    return Graph(edge_index=edge_index, x=x)  # node num_nodes is isolated


class TestKhopInNodes:
    def test_matches_naive_bfs(self):
        g = _ring_with_spur()
        src, dst = g.edge_index
        for hops in (1, 2, 3):
            for t in range(g.num_nodes):
                visited = {t}
                frontier = {t}
                for _ in range(hops):
                    frontier = {int(s) for s, d in zip(src, dst)
                                if int(d) in frontier} - visited
                    visited |= frontier
                got = khop_in_nodes(g, [t], hops)
                assert sorted(visited) == got.tolist(), (t, hops)

    def test_union_of_targets(self):
        g = _ring_with_spur()
        single = np.union1d(khop_in_nodes(g, [1], 2), khop_in_nodes(g, [5], 2))
        assert (khop_in_nodes(g, [1, 5], 2) == single).all()

    def test_validation(self):
        g = _ring_with_spur()
        with pytest.raises(GraphError):
            khop_in_nodes(g, [], 2)
        with pytest.raises(GraphError):
            khop_in_nodes(g, [0], -1)
        with pytest.raises(GraphError):
            khop_in_nodes(g, [g.num_nodes], 2)
        assert khop_in_nodes(g, [3], 0).tolist() == [3]


class TestSampledSubgraphMaps:
    def test_id_maps_round_trip(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        local = field.local_index(field.node_ids)
        assert (local == np.arange(field.num_nodes)).all()
        assert field.graph.num_nodes == field.node_ids.shape[0]
        assert (field.graph.x == g.x[field.node_ids]).all()

    def test_disconnected_target_is_its_own_field(self):
        g = _ring_with_spur()
        isolate = g.num_nodes - 1
        field = extract_receptive_field(g, [isolate], 3)
        assert field.node_ids.tolist() == [isolate]
        assert field.graph.num_edges == 0
        assert int(field.local_targets[0]) == 0

    def test_boundary_node_identified(self):
        # 1-hop from node 2 of the ring reaches node 1, whose own in-edge
        # (0 -> 1) is outside the sample: node 1 is a boundary node.
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        assert field.node_ids.tolist() == [1, 2]
        sub_src, sub_dst = field.graph.edge_index
        assert field.graph.num_edges == 1  # only 1 -> 2 survives
        assert field.node_ids[sub_src[0]] == 1

    def test_local_index_rejects_unsampled_nodes(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        with pytest.raises(GraphError):
            field.local_index(6)

    def test_legacy_tuple_unpack_warns(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        with pytest.warns(DeprecationWarning, match="SampledSubgraph"):
            node_ids, edge_mask = field
        assert (node_ids == field.node_ids).all()
        assert (edge_mask == field.edge_mask).all()


class TestReceptiveFieldForwardParity:
    def test_forward_exact_at_target_rows(self, node_model, mini_ba_shapes):
        """The preloaded degree cache makes the local forward exact: the
        sampled prediction rows equal the full-graph rows bitwise."""
        graph = mini_ba_shapes.graph
        full = node_model.predict_proba(graph)
        targets = [0, 5, int(graph.num_nodes - 1)]
        field = extract_receptive_field(graph, targets, node_model.num_layers)
        local = node_model.predict_proba(field.graph)
        for t, lt in zip(field.targets, field.local_targets):
            assert (local[int(lt)] == full[int(t)]).all()

    def test_nested_extraction_stays_exact(self, node_model, mini_ba_shapes):
        """Extracting from an extraction slices an already-preloaded degree
        vector, so the inner field is still exact at the target."""
        graph = mini_ba_shapes.graph
        full = node_model.predict_proba(graph)
        target = int(mini_ba_shapes.motif_nodes[0])
        outer = extract_receptive_field(graph, [target, 0], node_model.num_layers)
        local_target = int(outer.local_index(target))
        inner = extract_receptive_field(outer.graph, [local_target],
                                        node_model.num_layers)
        local = node_model.predict_proba(inner.graph)
        assert (local[int(inner.local_targets[0])] == full[target]).all()

    def test_link_target_ids_extract_one_union(self, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        union = extract_receptive_field(graph, [1, 5], 2)
        assert union.targets == (1, 5)
        assert (union.node_ids == np.union1d(khop_in_nodes(graph, [1], 2),
                                             khop_in_nodes(graph, [5], 2))).all()

    def test_num_hops_validation(self):
        g = _ring_with_spur()
        with pytest.raises(GraphError):
            extract_receptive_field(g, [0], -1)
        assert extract_receptive_field(g, [3], 0).node_ids.tolist() == [3]


class TestKhopSubgraphShim:
    def test_returns_sampled_subgraph(self):
        from repro.graph import k_hop_subgraph

        g = _ring_with_spur()
        field = k_hop_subgraph(g, 3, 2)
        assert isinstance(field, SampledSubgraph)
        assert (field.node_ids == khop_in_nodes(g, [3], 2)).all()
