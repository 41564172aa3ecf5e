"""Random-graph generator structural properties."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import (
    balanced_tree_edges,
    barabasi_albert_edges,
    cycle_edges,
    erdos_renyi_edges,
    house_motif_edges,
    sbm_edges,
)


def as_pairs(edge_index):
    return set(zip(edge_index[0].tolist(), edge_index[1].tolist()))


def is_symmetric(edge_index):
    pairs = as_pairs(edge_index)
    return all((v, u) in pairs for u, v in pairs)


class TestBarabasiAlbert:
    def test_all_nodes_connected(self):
        e = barabasi_albert_edges(30, 2, rng=0)
        touched = set(e[0].tolist()) | set(e[1].tolist())
        assert touched == set(range(30))

    def test_symmetric(self):
        assert is_symmetric(barabasi_albert_edges(25, 3, rng=1))

    def test_no_self_loops(self):
        e = barabasi_albert_edges(25, 2, rng=2)
        assert (e[0] != e[1]).all()

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            barabasi_albert_edges(3, 5)

    def test_hub_formation(self):
        e = barabasi_albert_edges(200, 2, rng=3)
        deg = np.bincount(e[1], minlength=200)
        assert deg.max() > 3 * np.median(deg)  # heavy tail


class TestTree:
    def test_node_count(self):
        edges, n = balanced_tree_edges(2, 3)
        assert n == 15  # 1 + 2 + 4 + 8

    def test_edge_count(self):
        edges, n = balanced_tree_edges(2, 3)
        assert edges.shape[1] == 2 * (n - 1)

    def test_symmetric(self):
        edges, _ = balanced_tree_edges(3, 2)
        assert is_symmetric(edges)


class TestErdosRenyi:
    def test_density_scales_with_p(self):
        sparse = erdos_renyi_edges(50, 0.05, rng=0).shape[1]
        dense = erdos_renyi_edges(50, 0.5, rng=0).shape[1]
        assert dense > sparse

    def test_p_zero_empty(self):
        assert erdos_renyi_edges(10, 0.0, rng=0).shape[1] == 0


class TestSBM:
    def test_homophily(self):
        e = sbm_edges([25, 25], 0.5, 0.01, rng=0)
        labels = np.array([0] * 25 + [1] * 25)
        same = (labels[e[0]] == labels[e[1]]).mean()
        assert same > 0.8

    def test_symmetric(self):
        assert is_symmetric(sbm_edges([10, 10], 0.3, 0.1, rng=1))


class TestMotifs:
    def test_cycle_structure(self):
        e = cycle_edges([0, 1, 2, 3])
        assert as_pairs(e) == {(0, 1), (1, 2), (2, 3), (3, 0),
                               (1, 0), (2, 1), (3, 2), (0, 3)}

    def test_cycle_min_size(self):
        with pytest.raises(DatasetError):
            cycle_edges([0, 1])

    def test_house_size(self):
        e = house_motif_edges([0, 1, 2, 3, 4])
        assert e.shape[1] == 12  # 6 undirected edges

    def test_house_exact_shape(self):
        e = house_motif_edges([0, 1, 2, 3, 4])
        undirected = {(min(u, v), max(u, v)) for u, v in as_pairs(e)}
        assert undirected == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)}

    def test_house_wrong_size(self):
        with pytest.raises(DatasetError):
            house_motif_edges([0, 1, 2])

    def test_generators_deterministic_with_seed(self):
        a = barabasi_albert_edges(30, 2, rng=7)
        b = barabasi_albert_edges(30, 2, rng=7)
        assert np.array_equal(a, b)
