"""Graph perturbation transforms."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    add_noise_edges,
    drop_edges,
    perturb_features,
    shuffle_labels,
    zero_features,
)


@pytest.fixture
def graph():
    return Graph(edge_index=np.array([[0, 1, 2, 3], [1, 2, 3, 0]]),
                 x=np.ones((4, 3)), y=np.array([0, 1, 0, 1]))


class TestNoiseEdges:
    def test_adds_edges(self, graph):
        out = add_noise_edges(graph, 3, rng=0)
        assert out.num_edges > graph.num_edges

    def test_bidirectional(self, graph):
        out = add_noise_edges(graph, 5, rng=0)
        pairs = set(zip(out.src.tolist(), out.dst.tolist()))
        new = pairs - set(zip(graph.src.tolist(), graph.dst.tolist()))
        for u, v in new:
            assert (v, u) in pairs

    def test_zero_edges_noop_structure(self, graph):
        out = add_noise_edges(graph, 0, rng=0)
        assert out.num_edges == graph.num_edges

    def test_negative_rejected(self, graph):
        with pytest.raises(GraphError):
            add_noise_edges(graph, -1)

    def test_original_untouched(self, graph):
        before = graph.edge_index.copy()
        add_noise_edges(graph, 5, rng=0)
        assert np.array_equal(graph.edge_index, before)

    def test_no_self_loops_added(self, graph):
        out = add_noise_edges(graph, 20, rng=1)
        assert (out.src != out.dst).all()


class TestDropEdges:
    def test_fraction_removed(self, graph):
        out = drop_edges(graph, 0.5, rng=0)
        assert out.num_edges <= graph.num_edges

    def test_zero_keeps_all(self, graph):
        assert drop_edges(graph, 0.0, rng=0).num_edges == graph.num_edges

    def test_one_drops_all(self, graph):
        assert drop_edges(graph, 1.0, rng=0).num_edges == 0

    def test_bad_fraction(self, graph):
        with pytest.raises(GraphError):
            drop_edges(graph, 1.5)


class TestFeaturePerturbations:
    def test_gaussian_noise(self, graph):
        out = perturb_features(graph, 0.1, rng=0)
        assert not np.allclose(out.x, graph.x)
        assert np.abs(out.x - graph.x).mean() < 0.5

    def test_zero_std_identity(self, graph):
        out = perturb_features(graph, 0.0, rng=0)
        assert np.allclose(out.x, graph.x)

    def test_zero_features_fraction(self, graph):
        out = zero_features(graph, 1.0, rng=0)
        assert np.allclose(out.x, 0.0)

    def test_zero_features_none(self, graph):
        out = zero_features(graph, 0.0, rng=0)
        assert np.allclose(out.x, graph.x)

    def test_zero_features_bad_fraction(self, graph):
        with pytest.raises(GraphError):
            zero_features(graph, -0.1)


class TestShuffleLabels:
    def test_multiset_preserved(self, graph):
        out = shuffle_labels(graph, rng=0)
        assert sorted(out.y.tolist()) == sorted(graph.y.tolist())

    def test_requires_array_labels(self, graph):
        graph.y = None
        with pytest.raises(GraphError):
            shuffle_labels(graph)


class TestSparseFeatures:
    """Feature transforms read CSR features densely and give the bytes the
    dense twin gives; the input graph is left as it was."""

    @pytest.fixture
    def twins(self):
        from repro.datasets import cora

        graph = cora(scale=0.1, seed=0).graph
        dense = Graph(edge_index=graph.edge_index, x=graph.x.toarray(), y=graph.y)
        return graph, dense

    @pytest.mark.parametrize("transform", [lambda g: perturb_features(g, 0.1, rng=0),
                                           lambda g: zero_features(g, 0.5, rng=0)],
                             ids=["perturb", "zero"])
    def test_csr_matches_the_dense_twin(self, twins, transform):
        graph, dense = twins
        before = graph.x.toarray()
        out = transform(graph)
        assert out.x.tobytes() == transform(dense).x.tobytes()
        assert np.array_equal(graph.x.toarray(), before)
        assert out.x.flags.writeable
