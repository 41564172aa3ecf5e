"""GraphBatch disjoint-union invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import Graph, GraphBatch


def small(label, n=3):
    edges = np.array([[i for i in range(n - 1)], [i + 1 for i in range(n - 1)]])
    return Graph(edge_index=edges, x=np.ones((n, 4)), y=label)


class TestBatching:
    def test_offsets(self):
        batch = GraphBatch([small(0), small(1)])
        assert batch.num_nodes == 6
        assert batch.num_edges == 4
        # second graph's edges are offset by 3
        assert batch.edge_index[:, 2].tolist() == [3, 4]

    def test_batch_vector(self):
        batch = GraphBatch([small(0), small(1, n=2)])
        assert batch.batch.tolist() == [0, 0, 0, 1, 1]

    def test_labels_collected(self):
        batch = GraphBatch([small(0), small(1)])
        assert batch.y.tolist() == [0, 1]

    def test_missing_labels_gives_none(self):
        g = small(0)
        g.y = None
        assert GraphBatch([g, small(1)]).y is None

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            GraphBatch([])

    def test_inconsistent_features_rejected(self):
        g2 = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 7)), y=0)
        with pytest.raises(GraphError):
            GraphBatch([small(0), g2])

    def test_node_offsets(self):
        batch = GraphBatch([small(0), small(1, n=5)])
        assert batch.node_offsets().tolist() == [0, 3, 8]

    def test_len_and_repr(self):
        batch = GraphBatch([small(0)])
        assert len(batch) == 1
        assert "num_graphs=1" in repr(batch)


class TestMinibatches:
    def test_covers_all_graphs(self):
        graphs = [small(i % 2) for i in range(10)]
        seen = 0
        for b in GraphBatch.iter_minibatches(graphs, 3):
            seen += b.num_graphs
        assert seen == 10

    def test_shuffle_changes_order(self):
        graphs = [small(i % 2, n=2 + i % 3) for i in range(20)]
        rng = np.random.default_rng(0)
        batches = list(GraphBatch.iter_minibatches(graphs, 20, rng=rng))
        sizes = [g.num_nodes for g in batches[0].graphs]
        original = [g.num_nodes for g in graphs]
        assert sizes != original  # overwhelmingly likely

    def test_batch_size_larger_than_dataset(self):
        graphs = [small(0), small(1)]
        batches = list(GraphBatch.iter_minibatches(graphs, 100))
        assert len(batches) == 1


class TestSparseFeatures:
    @staticmethod
    def sparse(label, n=30, seed=0):
        x = sp.random(n, 40, density=0.03, random_state=seed, format="csr")
        edges = np.array([list(range(n - 1)), list(range(1, n))])
        return Graph(edge_index=edges, x=x, y=label)

    def test_csr_graphs_stack_as_csr(self):
        graphs = [self.sparse(0, seed=0), self.sparse(1, n=20, seed=1)]
        assert all(sp.issparse(g.x) for g in graphs)
        batch = GraphBatch(graphs)
        assert isinstance(batch.x, sp.csr_matrix) and batch.x.shape == (50, 40)
        stacked = np.concatenate([g.x.toarray() for g in graphs])
        assert batch.x.toarray().tobytes() == stacked.tobytes()

    def test_a_graph_model_runs_on_a_csr_batch(self):
        from repro.nn import build_model

        graphs = [self.sparse(0, seed=0), self.sparse(1, n=20, seed=1)]
        dense = [Graph(edge_index=g.edge_index, x=g.x.toarray(), y=g.y) for g in graphs]
        model = build_model("gcn", "graph", 40, 2, hidden=8, rng=0)
        got = model.forward_batch(GraphBatch(graphs)).numpy()
        assert got.tobytes() == model.forward_batch(GraphBatch(dense)).numpy().tobytes()

    def test_mixed_layouts_raise(self):
        with pytest.raises(GraphError, match="CSR and dense"):
            GraphBatch([self.sparse(0), Graph(edge_index=np.zeros((2, 0)), x=np.ones((3, 40)))])
