"""Serialization round trips."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import Graph, load_graph, load_state_dict, save_graph, save_state_dict


def full_graph():
    return Graph(
        edge_index=np.array([[0, 1], [1, 2]]),
        x=np.arange(9.0).reshape(3, 3),
        y=np.array([0, 1, 0]),
        train_mask=np.array([True, False, True]),
        val_mask=np.array([False, True, False]),
        test_mask=np.array([False, False, False]),
        motif_edges={(0, 1)},
        meta={"dataset": "test", "scale": 0.5},
    )


class TestGraphIO:
    def test_roundtrip_everything(self, tmp_path):
        g = full_graph()
        path = tmp_path / "g.npz"
        save_graph(g, path)
        back = load_graph(path)
        assert np.array_equal(back.edge_index, g.edge_index)
        assert np.allclose(back.x, g.x)
        assert np.array_equal(back.y, g.y)
        assert np.array_equal(back.train_mask, g.train_mask)
        assert back.motif_edges == g.motif_edges
        assert back.meta["dataset"] == "test"

    def test_scalar_label(self, tmp_path):
        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 2)), y=1)
        save_graph(g, tmp_path / "g.npz")
        assert load_graph(tmp_path / "g.npz").y == 1

    def test_no_label(self, tmp_path):
        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 2)))
        save_graph(g, tmp_path / "g.npz")
        assert load_graph(tmp_path / "g.npz").y is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_graph(tmp_path / "nope.npz")


class TestStateDictIO:
    def test_roundtrip(self, tmp_path):
        state = {"layer.weight": np.ones((3, 2)), "layer.bias": np.zeros(2)}
        save_state_dict(state, tmp_path / "m.npz")
        back = load_state_dict(tmp_path / "m.npz")
        assert set(back) == set(state)
        assert np.allclose(back["layer.weight"], state["layer.weight"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_state_dict(tmp_path / "nope.npz")

    def test_model_roundtrip(self, tmp_path):
        from repro.nn import build_model

        model = build_model("gcn", "node", 4, 2, hidden=8, rng=0)
        save_state_dict(model.state_dict(), tmp_path / "model.npz")
        twin = build_model("gcn", "node", 4, 2, hidden=8, rng=99)
        twin.load_state_dict(load_state_dict(tmp_path / "model.npz"))
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), twin.named_parameters()):
            assert n1 == n2
            assert np.allclose(p1.numpy(), p2.numpy())


class TestSparseFeatureIO:
    def test_csr_roundtrip_is_byte_exact(self, tmp_path):
        from repro.datasets import cora

        g = cora(scale=0.1, seed=0).graph
        assert sp.issparse(g.x)
        save_graph(g, tmp_path / "g.npz")
        with np.load(tmp_path / "g.npz", allow_pickle=False) as data:
            assert {"x_data", "x_indices", "x_indptr", "x_shape"} <= set(data.files)
            assert "x" not in data.files
        back = load_graph(tmp_path / "g.npz")
        assert isinstance(back.x, sp.csr_matrix) and back.x.shape == g.x.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(back.x, name).tobytes() == getattr(g.x, name).tobytes()
        assert np.array_equal(back.edge_index, g.edge_index)

    def test_dense_features_keep_the_x_entry(self, tmp_path):
        save_graph(full_graph(), tmp_path / "g.npz")
        with np.load(tmp_path / "g.npz", allow_pickle=False) as data:
            assert "x" in data.files and "x_data" not in data.files
