"""Per-graph sparse-structure caching and identity-based invalidation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import KernelError
from repro.graph import Graph
from repro.sparse import GraphSparseCache, feature_csr, sparse_cache


def _triangle() -> Graph:
    edge_index = np.array([[0, 1, 2], [1, 2, 0]])
    x = np.eye(3)
    return Graph(edge_index=edge_index, x=x)


class TestGraphSparseCache:
    def test_augmented_structure(self):
        g = _triangle()
        cache = GraphSparseCache(g.edge_index, g.num_nodes)
        assert cache.src.shape == (6,)  # 3 data edges + 3 self-loops
        assert cache.dst_plan.num_rows == 3
        # Augmented in-degree of a directed triangle + self-loops is 2.
        np.testing.assert_allclose(cache.dst_plan.counts, 2.0)
        np.testing.assert_allclose(cache.deg_inv_sqrt, 1.0 / np.sqrt(2.0))
        assert cache.deg_inv_sqrt is cache.deg_inv_sqrt  # lazy, then cached

    def test_sparse_cache_reuses_across_calls(self):
        g = _triangle()
        assert sparse_cache(g) is sparse_cache(g)

    def test_with_edges_gets_fresh_cache(self):
        g = _triangle()
        first = sparse_cache(g)
        sub = g.with_edges(np.array([True, False, True]))
        second = sparse_cache(sub)
        assert second is not first
        assert second.src.shape == (5,)
        # The original graph keeps its own cache.
        assert sparse_cache(g) is first

    def test_replaced_edge_index_invalidates(self):
        g = _triangle()
        first = sparse_cache(g)
        g.edge_index = g.edge_index.copy()  # same content, new array
        assert sparse_cache(g) is not first

    def test_restrict_slices_the_parent_and_renumbers_rows(self):
        parent = sparse_cache(_triangle())
        parent._deg = np.array([2.0, 5.0, 3.0])  # a context's preloaded degrees
        ids = np.array([0, 2, 4, 5])              # two data edges, two self-loops
        sub = parent.restrict(ids)
        assert np.array_equal(sub.src, parent.src[ids])
        assert np.array_equal(sub.dst, parent.dst[ids])
        assert np.array_equal(sub.edge_norm, parent.edge_norm[ids])
        assert sub.self_loop[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert not sub.renumbered and sub.dst_in_plan is sub.dst_plan

        # Edge 2→0 and node 0's self-loop, reading rows {0, 2}, writing {0}.
        rows = parent.restrict(np.array([2, 3]), np.array([0, 2]), np.array([0]))
        assert rows.renumbered
        assert (rows.num_inputs, rows.num_nodes) == (2, 1)
        assert rows.src.tolist() == [1, 0] and rows.dst.tolist() == [0, 0]
        assert rows.dst_in.tolist() == [0, 0]
        assert (rows.src_plan.num_rows, rows.dst_in_plan.num_rows) == (2, 2)
        assert np.array_equal(rows.edge_norm, parent.edge_norm[[2, 3]])
        assert rows.self_loop[:, 0].tolist() == [0.0, 1.0]
        with pytest.raises(KernelError, match="outside the layer's row set"):
            parent.restrict(np.array([2, 3]), np.array([0, 1]), np.array([0]))


class TestFeatureCsr:
    def test_sparse_features_get_memoized_twin(self):
        rng = np.random.default_rng(0)
        x = (rng.random((50, 40)) < 0.02).astype(np.float64)
        twin = feature_csr(x)
        assert twin is not None
        matrix, matrix_t = twin
        np.testing.assert_array_equal(matrix.toarray(), x)
        np.testing.assert_array_equal(matrix_t.toarray(), x.T)
        # Identity-keyed: the same array object returns the same twin.
        assert feature_csr(x)[0] is matrix

    def test_dense_or_nonconforming_features_opt_out(self):
        assert feature_csr(np.ones((4, 4))) is None  # density 1.0
        assert feature_csr(np.zeros((4, 4), dtype=np.float32)) is None
        assert feature_csr(np.zeros(8)) is None  # 1-D
        assert feature_csr([[0.0, 1.0]]) is None  # not an ndarray

    def test_too_dense_decision_is_memoized(self):
        x = np.ones((6, 6))
        assert feature_csr(x) is None
        assert feature_csr(x) is None  # second call hits the () sentinel

    def test_transpose_is_a_zero_copy_view(self):
        x = (np.random.default_rng(1).random((30, 20)) < 0.04).astype(np.float64)
        matrix, matrix_t = feature_csr(x)
        assert matrix_t.format == "csc"
        assert np.shares_memory(matrix_t.data, matrix.data)
        assert np.shares_memory(matrix_t.indices, matrix.indices)

    def test_adjoint_matches_the_copied_transpose_bit_for_bit(self):
        rng = np.random.default_rng(2)
        x = (rng.random((60, 45)) < 0.04) * rng.normal(size=(60, 45))
        g = rng.normal(size=(60, 8))
        g[::5] = 0.0                                   # zero rows
        g[1::7, ::2] = -0.0
        g[3, :] = -0.0                                 # a row of -0.0 only
        copied = sp.csr_matrix(sp.csr_matrix(x).T)
        assert (feature_csr(x)[1] @ g).tobytes() == (copied @ g).tobytes()
        assert (feature_csr(x)[1] @ g[:, :1]).tobytes() == (copied @ g[:, :1]).tobytes()

    def test_training_through_the_view_matches_the_copied_transpose(self, monkeypatch):
        """A GCN trained on bag-of-words features ends with the same weight
        bytes whichever transpose its first layer's adjoint runs over."""
        import repro.nn.models as models
        from repro.autograd import SparseLeaf
        from repro.datasets import cora
        from repro.nn import Trainer, build_model

        graph = cora(scale=0.1, seed=0).graph
        assert sp.issparse(graph.x)  # enters the forward as a SparseLeaf

        def train():
            model = build_model("gcn", "node", graph.num_features, 7, hidden=16, rng=0)
            Trainer(model, epochs=15, patience=None).fit_node(graph)
            return [p.data.tobytes() for p in model.parameters()]

        shipped = train()

        def copied_leaf(matrix, matrix_t):
            assert matrix_t.format == "csc"  # the zero-copy view
            return SparseLeaf(matrix, sp.csr_matrix(matrix.T))

        monkeypatch.setattr(models, "SparseLeaf", copied_leaf)
        assert train() == shipped
        # The same features handed over dense take feature_csr's twin.
        graph.x = graph.x.toarray()
        assert feature_csr(graph.x) is not None
        assert train() == shipped
