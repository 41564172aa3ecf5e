"""Graph container invariants and operations."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import Graph


def make_graph(**overrides):
    defaults = dict(
        edge_index=np.array([[0, 1, 2], [1, 2, 0]]),
        x=np.eye(3),
    )
    defaults.update(overrides)
    return Graph(**defaults)


class TestValidation:
    def test_basic_construction(self):
        g = make_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_features == 3

    def test_bad_edge_index_shape(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([0, 1, 2]))

    def test_bad_x_shape(self):
        with pytest.raises(GraphError):
            make_graph(x=np.ones(3))

    def test_edge_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([[0, 5], [1, 0]]))

    def test_negative_node_id(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([[-1], [0]]))

    def test_num_nodes_mismatch(self):
        with pytest.raises(GraphError):
            make_graph(num_nodes=7)

    def test_mask_shape_checked(self):
        with pytest.raises(GraphError):
            make_graph(train_mask=np.ones(5, dtype=bool))

    def test_labels_coerced_to_int(self):
        g = make_graph(y=np.array([0.0, 1.0, 2.0]))
        assert g.y.dtype == np.int64

    def test_motif_edges_coerced_to_frozenset(self):
        g = make_graph(motif_edges={(0, 1), (1, 2)})
        assert isinstance(g.motif_edges, frozenset)

    def test_empty_graph(self):
        g = Graph(edge_index=np.zeros((2, 0), dtype=int), x=np.ones((4, 2)))
        assert g.num_edges == 0
        assert g.num_nodes == 4

    def test_scalar_label(self):
        g = make_graph(y=1)
        assert g.y == 1

    def test_validate_rechecks(self):
        g = make_graph()
        g.edge_index = np.array([[0, 9], [1, 0]])
        with pytest.raises(GraphError):
            g.validate()


class TestAccessors:
    def test_src_dst(self):
        g = make_graph()
        assert g.src.tolist() == [0, 1, 2]
        assert g.dst.tolist() == [1, 2, 0]

    def test_degrees(self):
        g = make_graph()
        assert g.in_degree().tolist() == [1, 1, 1]
        assert g.out_degree().tolist() == [1, 1, 1]

    def test_has_edge(self):
        g = make_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_id_map_first_occurrence(self):
        g = Graph(edge_index=np.array([[0, 0], [1, 1]]), x=np.eye(2))
        assert g.edge_id_map()[(0, 1)] == 0

    def test_repr_mentions_sizes(self):
        assert "num_nodes=3" in repr(make_graph())


class TestWithEdges:
    def test_boolean_mask(self):
        g = make_graph()
        sub = g.with_edges(np.array([True, False, True]))
        assert sub.num_edges == 2
        assert sub.num_nodes == 3

    def test_index_array(self):
        g = make_graph()
        sub = g.with_edges(np.array([0, 2]))
        assert sub.src.tolist() == [0, 2]

    def test_wrong_mask_length(self):
        g = make_graph()
        with pytest.raises(GraphError):
            g.with_edges(np.array([True, False]))

    def test_preserves_metadata(self):
        g = make_graph(y=np.array([0, 1, 0]), motif_edges={(0, 1)})
        sub = g.with_edges(np.array([True, True, False]))
        assert sub.motif_edges == g.motif_edges
        assert np.array_equal(sub.y, g.y)

    def test_original_untouched(self):
        g = make_graph()
        g.with_edges(np.zeros(3, dtype=bool))
        assert g.num_edges == 3


class TestCopy:
    def test_deep_copy_arrays(self):
        g = make_graph(y=np.array([0, 1, 2]))
        c = g.copy()
        c.x[0, 0] = 99.0
        c.y[0] = 5
        assert g.x[0, 0] == 1.0
        assert g.y[0] == 0

    def test_copy_masks(self):
        g = make_graph(train_mask=np.array([True, False, True]))
        c = g.copy()
        c.train_mask[0] = False
        assert g.train_mask[0]


class TestSparseFeatures:
    """A sparse ``x`` is stored as canonical float64 CSR — or dense, above
    the density ceiling — and the caller's matrix is left alone."""

    @staticmethod
    def messy(num_nodes=40, num_features=50):
        # Unsorted column indices, a duplicate entry and an explicit zero.
        rows = np.array([0, 0, 0, 3, 3, 7])
        cols = np.array([9, 2, 9, 4, 1, 0])
        vals = np.array([1.0, 2.0, 0.5, 0.0, 3.0, 4.0])
        order = np.lexsort((-cols, rows))
        indptr = np.searchsorted(rows[order], np.arange(num_nodes + 1))
        return sp.csr_matrix((vals[order], cols[order], indptr),
                             shape=(num_nodes, num_features))

    def test_stored_in_canonical_form(self):
        x = self.messy()
        before = [a.copy() for a in (x.indptr, x.indices, x.data)]
        g = make_graph(x=x)
        expected = sp.csr_matrix(x.toarray())
        assert isinstance(g.x, sp.csr_matrix) and g.x.dtype == np.float64
        for name in ("indptr", "indices", "data"):
            assert getattr(g.x, name).tobytes() == getattr(expected, name).tobytes()
        for old, new in zip(before, (x.indptr, x.indices, x.data)):
            assert np.array_equal(old, new)  # the caller's matrix is untouched

    def test_other_sparse_formats_become_csr(self):
        x = self.messy().tocoo().astype(np.float32)
        g = make_graph(x=x)
        assert isinstance(g.x, sp.csr_matrix) and g.x.dtype == np.float64
        assert np.array_equal(g.x.toarray(), x.toarray())

    def test_denser_than_the_ceiling_is_stored_dense(self):
        x = sp.csr_matrix(np.eye(40, 50))  # 2% nonzero
        assert sp.issparse(make_graph(x=x).x)
        x = np.zeros((40, 10))
        x[:, 0] = 1.0
        x = sp.csr_matrix(x)  # 10% nonzero
        g = make_graph(x=x)
        assert type(g.x) is np.ndarray
        assert g.x.tobytes() == x.toarray().tobytes()

    def test_a_dense_x_stays_dense(self):
        x = np.eye(40, 50)
        assert type(make_graph(x=x).x) is np.ndarray

    def test_copy_and_with_edges_keep_csr(self):
        g = make_graph(x=self.messy())
        assert sp.issparse(g.copy().x) and g.copy().x is not g.x
        assert g.with_edges(np.ones(g.num_edges, dtype=bool)).x is g.x
