"""SampledSubgraph id maps and the exact forward of extract_receptive_field."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (Graph, SampledSubgraph, extract_receptive_field, induced_subgraph,
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
        assert field.subgraph.num_nodes == field.node_ids.shape[0]
        assert (field.subgraph.x == g.x[field.node_ids]).all()

    def test_disconnected_target_is_its_own_field(self):
        g = _ring_with_spur()
        isolate = g.num_nodes - 1
        field = extract_receptive_field(g, [isolate], 3)
        assert field.node_ids.tolist() == [isolate]
        assert field.subgraph.num_edges == 0
        assert int(field.local_targets[0]) == 0

    def test_boundary_node_identified(self):
        # 1-hop from node 2 of the ring reaches node 1, whose own in-edge
        # (0 -> 1) is outside the sample: node 1 is a boundary node.
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        assert field.node_ids.tolist() == [1, 2]
        sub_src, sub_dst = field.subgraph.edge_index
        assert field.subgraph.num_edges == 1  # only 1 -> 2 survives
        assert field.node_ids[sub_src[0]] == 1

    def test_local_index_rejects_unsampled_nodes(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        with pytest.raises(GraphError):
            field.local_index(6)

    @pytest.mark.parametrize("bad", [-1, 9, [2, -1]])
    def test_local_index_rejects_out_of_range_ids(self, bad):
        """``-1`` must not wrap to the last node, nor ``N`` raise a bare
        ``IndexError``: both are ids outside the field."""
        g = _ring_with_spur()
        field = extract_receptive_field(g, [g.num_nodes - 1, 0], 8)
        assert g.num_nodes - 1 in field.node_ids
        with pytest.raises(GraphError, match="not in the sampled subgraph"):
            field.local_index(bad)

    def test_local_target_needs_one_target(self):
        g = _ring_with_spur()
        assert extract_receptive_field(g, [3], 2).local_target == 2  # of nodes 1, 2, 3
        with pytest.raises(GraphError, match="local_targets"):
            extract_receptive_field(g, [1, 5], 2).local_target
        assert SampledSubgraph.whole(g).local_target is None

    def test_hops_are_the_backward_distances(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [4], 3)
        # 4 <- 3 <- 2 <- 1 along the ring, and 4 <- 0 <- 7 <- 6 via the spur.
        assert dict(zip(field.node_ids.tolist(), field.hops.tolist())) == \
            {0: 1, 1: 3, 2: 2, 3: 1, 4: 0, 6: 3, 7: 2}

    def test_the_relabeled_subgraph_is_the_induced_subgraph(self, mini_ba_shapes):
        """The relabel from the field's own maps, against a dense remap of
        the source; ``induced_subgraph`` goes through the same helper."""
        graph = mini_ba_shapes.graph
        field = extract_receptive_field(graph, [int(mini_ba_shapes.motif_nodes[0]), 3], 3)
        remap = -np.ones(graph.num_nodes, dtype=np.int64)
        remap[field.node_ids] = np.arange(field.num_nodes)
        kept = (remap[graph.src] >= 0) & (remap[graph.dst] >= 0)
        assert np.array_equal(np.flatnonzero(kept), field.edge_positions)
        expected = {"edge_index": remap[graph.edge_index[:, kept]],
                    "x": graph.x[field.node_ids], "y": graph.y[field.node_ids]}
        sub, node_ids, edge_mask = induced_subgraph(graph, field.node_ids)
        assert np.array_equal(node_ids, field.node_ids) and np.array_equal(edge_mask, kept)
        for relabeled in (field.subgraph, sub):
            for name, want in expected.items():
                got = getattr(relabeled, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert relabeled.motif_edges == {
                (int(remap[u]), int(remap[v])) for u, v in graph.motif_edges
                if remap[u] >= 0 and remap[v] >= 0}
        assert field.subgraph.motif_edges

    def test_tuple_unpack_is_type_error(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        with pytest.raises(TypeError, match="SampledSubgraph"):
            node_ids, edge_mask = field


class TestReceptiveFieldForwardParity:
    def test_forward_exact_at_target_rows(self, node_model, mini_ba_shapes):
        """The preloaded degree cache makes the local forward exact: the
        sampled prediction rows equal the full-graph rows bitwise."""
        graph = mini_ba_shapes.graph
        full = node_model.predict_proba(graph)
        targets = [0, 5, int(graph.num_nodes - 1)]
        field = extract_receptive_field(graph, targets, node_model.num_layers)
        local = node_model.predict_proba(field.subgraph)
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
        inner = extract_receptive_field(outer.subgraph, [local_target],
                                        node_model.num_layers)
        local = node_model.predict_proba(inner.subgraph)
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
