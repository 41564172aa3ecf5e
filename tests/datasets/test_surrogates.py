"""Citation and molecule surrogates: statistics and learnability regime."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import bbbp, citation_surrogate, citeseer, cora, mutag, pubmed


class TestCitationSurrogates:
    @pytest.fixture(scope="class")
    def small_cora(self):
        return cora(scale=0.1, seed=0)

    def test_class_count_preserved(self, small_cora):
        assert small_cora.num_classes == 7

    def test_citeseer_pubmed_classes(self):
        assert citeseer(scale=0.08, seed=0).num_classes == 6
        assert pubmed(scale=0.02, seed=0).num_classes == 3

    def test_homophily(self, small_cora):
        g = small_cora.graph
        same = (g.y[g.src] == g.y[g.dst]).mean()
        assert same > 0.6

    def test_features_binary_sparse(self, small_cora):
        assert sp.issparse(small_cora.graph.x)  # stored as CSR
        x = small_cora.graph.x.toarray()
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert x.mean() < 0.3  # sparse bag of words

    def test_features_class_correlated(self, small_cora):
        g = small_cora.graph
        # mean feature vector of a class should be most similar to itself
        x = g.x.toarray()
        means = np.stack([x[g.y == c].mean(axis=0) for c in range(7)])
        sims = means @ means.T
        assert (sims.argmax(axis=1) == np.arange(7)).mean() > 0.7

    def test_planetoid_style_split(self, small_cora):
        g = small_cora.graph
        assert g.train_mask.sum() <= 7 * 20
        assert not (g.train_mask & g.val_mask).any()
        assert not (g.val_mask & g.test_mask).any()

    def test_edges_symmetric(self, small_cora):
        g = small_cora.graph
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_custom_profile(self):
        ds = citation_surrogate("custom", 100, 400, 32, 4, seed=1)
        assert ds.graph.num_nodes == 100
        assert ds.num_classes == 4
        assert ds.graph.num_features == 32

    def test_gcn_learns_surrogate(self, small_cora):
        from repro.nn import Trainer, build_model

        model = build_model("gcn", "node", small_cora.num_features,
                            small_cora.num_classes, hidden=16, rng=0)
        result = Trainer(model, epochs=60, patience=None).fit_node(small_cora.graph)
        assert result.test_acc > 0.6  # far above the 1/7 chance level


class TestMoleculeSurrogates:
    @pytest.fixture(scope="class")
    def small_mutag(self):
        return mutag(scale=0.2, seed=0)

    def test_feature_dims(self, small_mutag):
        assert small_mutag.num_features == 7
        assert bbbp(scale=0.02, seed=0).num_features == 9

    def test_one_hot_features(self, small_mutag):
        for g in small_mutag.graphs[:5]:
            assert np.allclose(g.x.sum(axis=1), 1.0)

    def test_motif_only_in_positive_class(self, small_mutag):
        for g in small_mutag.graphs:
            if int(g.y) == 1:
                assert g.motif_edges
            else:
                assert g.motif_edges is None

    def test_nitro_motif_structure(self, small_mutag):
        # positive molecules contain an N (type 1) bonded to two O (type 2)
        g = next(g for g in small_mutag.graphs if int(g.y) == 1)
        types = g.x.argmax(axis=1)
        n_atoms = np.flatnonzero(types == 1)
        found = False
        for n in n_atoms:
            neighbors = g.dst[g.src == n]
            if (types[neighbors] == 2).sum() >= 2:
                found = True
        assert found

    def test_graphs_connected(self, small_mutag):
        from repro.graph import connected_components

        for g in small_mutag.graphs[:8]:
            assert len(set(connected_components(g))) == 1

    def test_gin_learns_surrogate(self, small_mutag):
        from repro.nn import Trainer, build_model

        model = build_model("gin", "graph", 7, 2, hidden=16, rng=0)
        result = Trainer(model, epochs=60, patience=None).fit_graphs(
            small_mutag.graphs, batch_size=64, rng=0)
        assert result.train_acc > 0.8

    def test_deterministic(self):
        a = mutag(scale=0.1, seed=5)
        b = mutag(scale=0.1, seed=5)
        assert np.array_equal(a.graphs[3].edge_index, b.graphs[3].edge_index)
