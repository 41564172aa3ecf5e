"""Graph utilities: k-hop subgraphs, induction, conversions."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    add_reverse_edges,
    coalesce_edges,
    connected_components,
    edge_list,
    extract_receptive_field,
    from_networkx,
    induced_subgraph,
    to_csr,
    to_networkx,
    to_undirected,
)


@pytest.fixture
def chain():
    """0 -> 1 -> 2 -> 3 -> 4 plus a detached pair 5 -> 6."""
    return Graph(edge_index=np.array([[0, 1, 2, 3, 5], [1, 2, 3, 4, 6]]),
                 x=np.ones((7, 2)))


class TestCoalesce:
    def test_removes_duplicates(self):
        e = coalesce_edges(np.array([[0, 0, 1], [1, 1, 0]]))
        assert e.shape == (2, 2)

    def test_empty(self):
        assert coalesce_edges(np.zeros((2, 0), dtype=int)).shape == (2, 0)

    def test_sorted_output(self):
        e = coalesce_edges(np.array([[2, 0], [0, 1]]))
        assert e[0].tolist() == [0, 2]


class TestReverseAndUndirected:
    def test_add_reverse(self):
        e = add_reverse_edges(np.array([[0], [1]]))
        pairs = set(zip(e[0].tolist(), e[1].tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_to_undirected_graph(self, chain):
        und = to_undirected(chain)
        assert und.has_edge(1, 0)
        assert und.num_edges == 10


class TestKHop:
    def test_one_hop_incoming(self, chain):
        field = extract_receptive_field(chain, [2], 1)
        assert set(field.node_ids.tolist()) == {1, 2}
        assert field.num_edges == 1  # only 1->2

    def test_three_hops(self, chain):
        field = extract_receptive_field(chain, [4], 3)
        assert set(field.node_ids.tolist()) == {1, 2, 3, 4}

    def test_follows_direction_only(self, chain):
        field = extract_receptive_field(chain, [0], 2)
        assert set(field.node_ids.tolist()) == {0}  # nothing points into 0

    def test_out_of_range_target(self, chain):
        with pytest.raises(GraphError):
            extract_receptive_field(chain, [99], 2)

    def test_hops_zero(self, chain):
        field = extract_receptive_field(chain, [3], 0)
        assert field.node_ids.tolist() == [3]
        assert field.num_edges == 0


class TestInducedSubgraph:
    def test_relabels_nodes(self, chain):
        sub, node_ids, edge_mask = induced_subgraph(chain, np.array([2, 3, 4]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert node_ids.tolist() == [2, 3, 4]

    def test_features_sliced(self, chain):
        chain.x = np.arange(14.0).reshape(7, 2)
        sub, node_ids, _ = induced_subgraph(chain, np.array([1, 3]))
        assert np.allclose(sub.x, chain.x[[1, 3]])

    def test_labels_and_masks_sliced(self):
        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((3, 1)),
                  y=np.array([7, 8, 9]), train_mask=np.array([True, False, True]))
        sub, _, _ = induced_subgraph(g, np.array([0, 2]))
        assert sub.y.tolist() == [7, 9]
        assert sub.train_mask.tolist() == [True, True]

    def test_motif_edges_relabelled(self):
        g = Graph(edge_index=np.array([[1, 2], [2, 1]]), x=np.ones((3, 1)),
                  motif_edges={(1, 2), (2, 1)})
        sub, _, _ = induced_subgraph(g, np.array([1, 2]))
        assert sub.motif_edges == frozenset({(0, 1), (1, 0)})

    def test_out_of_range(self, chain):
        with pytest.raises(GraphError):
            induced_subgraph(chain, np.array([0, 42]))

    def test_duplicate_ids_deduped(self, chain):
        sub, node_ids, _ = induced_subgraph(chain, np.array([1, 1, 2]))
        assert sub.num_nodes == 2


class TestConversions:
    def test_to_csr_shape(self, chain):
        adj = to_csr(chain)
        assert adj.shape == (7, 7)
        assert adj[0, 1] == 1.0

    def test_to_csr_weights(self, chain):
        adj = to_csr(chain, weights=np.full(chain.num_edges, 2.0))
        assert adj[0, 1] == 2.0

    def test_connected_components(self, chain):
        labels = connected_components(chain)
        assert labels[0] == labels[4]
        assert labels[0] != labels[5]

    def test_edge_list(self, chain):
        assert (0, 1) in edge_list(chain)

    def test_networkx_roundtrip(self, chain):
        nx_g = to_networkx(chain)
        back = from_networkx(nx_g, x=chain.x)
        assert back.num_nodes == chain.num_nodes
        assert set(edge_list(back)) == set(edge_list(chain))

    def test_from_networkx_undirected_doubles(self):
        import networkx as nx

        g = nx.Graph([(0, 1)])
        converted = from_networkx(g)
        assert converted.num_edges == 2
