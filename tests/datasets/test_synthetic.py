"""The paper's synthetic benchmarks: structure and ground truth."""

import numpy as np
import pytest

from repro.datasets import ba_2motifs, ba_shapes, tree_cycles


class TestBAShapes:
    @pytest.fixture(scope="class")
    def ds(self):
        return ba_shapes(scale=0.15, seed=0)

    def test_four_classes(self, ds):
        assert ds.num_classes == 4
        assert set(np.unique(ds.graph.y)) == {0, 1, 2, 3}

    def test_feature_dim_ten(self, ds):
        assert ds.num_features == 10

    def test_house_label_pattern(self, ds):
        # every house contributes 1 roof, 2 shoulders, 2 bases
        counts = np.bincount(ds.graph.y[ds.motif_nodes])
        assert counts[2] == 2 * counts[1]
        assert counts[3] == 2 * counts[1]

    def test_motif_edges_within_motif_nodes(self, ds):
        motif_nodes = set(ds.motif_nodes.tolist())
        for u, v in ds.graph.motif_edges:
            assert u in motif_nodes and v in motif_nodes

    def test_motif_edges_symmetric(self, ds):
        for u, v in ds.graph.motif_edges:
            assert (v, u) in ds.graph.motif_edges

    def test_houses_attached_to_base(self, ds):
        # every house has at least one edge leaving the motif node set
        motif_nodes = set(ds.motif_nodes.tolist())
        src, dst = ds.graph.src, ds.graph.dst
        attached = set()
        for u, v in zip(src.tolist(), dst.tolist()):
            if u in motif_nodes and v not in motif_nodes:
                attached.add(u)
        assert attached  # at least some anchor connections

    def test_split_masks_partition(self, ds):
        total = ds.graph.train_mask | ds.graph.val_mask | ds.graph.test_mask
        assert total.all()
        assert not (ds.graph.train_mask & ds.graph.val_mask).any()

    def test_full_scale_sizes(self):
        ds = ba_shapes(scale=1.0, seed=0)
        assert ds.graph.num_nodes == 700  # 300 base + 80 houses (Table III)

    def test_deterministic(self):
        a = ba_shapes(scale=0.15, seed=3)
        b = ba_shapes(scale=0.15, seed=3)
        assert np.array_equal(a.graph.edge_index, b.graph.edge_index)

    def test_different_seed_differs(self):
        a = ba_shapes(scale=0.15, seed=3)
        b = ba_shapes(scale=0.15, seed=4)
        assert not np.array_equal(a.graph.edge_index, b.graph.edge_index)


class TestTreeCycles:
    @pytest.fixture(scope="class")
    def ds(self):
        return tree_cycles(scale=0.15, seed=0)

    def test_binary_labels(self, ds):
        assert ds.num_classes == 2

    def test_cycle_nodes_labelled_one(self, ds):
        assert (ds.graph.y[ds.motif_nodes] == 1).all()

    def test_cycles_have_six_nodes(self, ds):
        assert len(ds.motif_nodes) % 6 == 0

    def test_motif_edges_form_cycles(self, ds):
        # within one cycle, every node has exactly 2 motif neighbours
        first_cycle = ds.motif_nodes[:6]
        motif = ds.graph.motif_edges
        for v in first_cycle:
            out = sum(1 for u, w in motif if u == v)
            assert out == 2

    def test_full_scale_sizes(self):
        ds = tree_cycles(scale=1.0, seed=0)
        assert ds.graph.num_nodes == 871  # 511 tree + 60 cycles (Table III)


class TestBA2Motifs:
    @pytest.fixture(scope="class")
    def ds(self):
        return ba_2motifs(scale=0.03, seed=0)

    def test_balanced_classes(self, ds):
        labels = [int(g.y) for g in ds.graphs]
        assert abs(labels.count(0) - labels.count(1)) <= 1

    def test_25_nodes_each(self, ds):
        assert all(g.num_nodes == 25 for g in ds.graphs)

    def test_motif_ground_truth_differs_by_class(self, ds):
        # house has 6 undirected motif edges, cycle has 5
        for g in ds.graphs:
            expected = 12 if int(g.y) == 0 else 10
            assert len(g.motif_edges) == expected

    def test_motif_on_last_five_nodes(self, ds):
        for g in ds.graphs[:6]:
            for u, v in g.motif_edges:
                assert u >= 20 and v >= 20

    def test_connected_to_base(self, ds):
        from repro.graph.utils import connected_components

        for g in ds.graphs[:6]:
            assert len(set(connected_components(g))) == 1

    def test_stats_row(self, ds):
        stats = ds.stats()
        assert stats.num_nodes == 25.0
        assert stats.num_features == 10
