"""Dataset registry and base-class behaviour."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_NAMES,
    GraphDataset,
    NodeDataset,
    dataset_task,
    default_scale,
    load_dataset,
)
from repro.errors import DatasetError


class TestRegistry:
    def test_all_eight_paper_datasets(self):
        assert set(DATASET_NAMES) == {
            "cora", "citeseer", "pubmed", "ba_shapes", "tree_cycles",
            "mutag", "bbbp", "ba_2motifs",
        }

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_case_and_hyphen_insensitive(self):
        ds = load_dataset("BA-Shapes", scale=0.12, seed=0)
        assert ds.name == "ba_shapes"

    def test_tasks(self):
        assert dataset_task("cora") == "node"
        assert dataset_task("mutag") == "graph"
        with pytest.raises(DatasetError):
            dataset_task("bogus")

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.42")
        assert default_scale() == 0.42

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
    def test_non_finite_or_non_positive_scale_rejected(self, scale):
        with pytest.raises(DatasetError, match="positive finite"):
            load_dataset("ba_shapes", scale=scale)

    @pytest.mark.parametrize("raw", ["abc", "nan", "-0.5"])
    def test_bad_scale_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(DatasetError, match="REPRO_SCALE"):
            default_scale()

    def test_load_uses_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.12")
        small = load_dataset("tree_cycles", seed=0)
        big = load_dataset("tree_cycles", scale=0.5, seed=0)
        assert small.graph.num_nodes < big.graph.num_nodes


class TestSampling:
    def test_node_targets_in_range(self):
        ds = load_dataset("tree_cycles", scale=0.12, seed=0)
        targets = ds.sample_targets(10, rng=0)
        assert ((0 <= targets) & (targets < ds.graph.num_nodes)).all()

    def test_motif_only_targets(self):
        ds = load_dataset("ba_shapes", scale=0.12, seed=0)
        targets = ds.sample_targets(10, rng=0, motif_only=True)
        assert set(targets.tolist()) <= set(ds.motif_nodes.tolist())

    def test_motif_only_without_motifs_raises(self):
        ds = load_dataset("cora", scale=0.05, seed=0)
        with pytest.raises(DatasetError):
            ds.sample_targets(5, motif_only=True)

    def test_graph_targets(self):
        ds = load_dataset("mutag", scale=0.12, seed=0)
        idx = ds.sample_targets(5, rng=0)
        assert ((0 <= idx) & (idx < len(ds))).all()

    def test_graph_motif_only(self):
        ds = load_dataset("mutag", scale=0.12, seed=0)
        idx = ds.sample_targets(5, rng=0, motif_only=True)
        assert all(ds[int(i)].motif_edges for i in idx)

    def test_sample_capped_at_pool(self):
        ds = load_dataset("mutag", scale=0.12, seed=0)
        assert ds.sample_targets(10_000, rng=0).size == len(ds)

    def test_sampling_deterministic(self):
        ds = load_dataset("tree_cycles", scale=0.12, seed=0)
        a = ds.sample_targets(5, rng=7)
        b = ds.sample_targets(5, rng=7)
        assert np.array_equal(a, b)


class TestBaseClasses:
    def test_node_dataset_num_classes_requires_labels(self):
        from repro.graph import Graph

        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 2)))
        ds = NodeDataset(name="x", graph=g)
        with pytest.raises(DatasetError):
            ds.num_classes

    def test_graph_dataset_empty_rejected(self):
        with pytest.raises(DatasetError):
            GraphDataset(name="x", graphs=[])

    def test_graph_dataset_indexing(self):
        ds = load_dataset("mutag", scale=0.12, seed=0)
        assert ds[0] is ds.graphs[0]
        assert len(ds) == len(ds.graphs)

    def test_stats_rows_formatted(self):
        ds = load_dataset("mutag", scale=0.12, seed=0)
        row = ds.stats().row()
        assert "mutag" in row
