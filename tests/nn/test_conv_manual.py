"""GCNConv / GINConv against from-scratch numpy computations."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.graph import Graph
from repro.nn import GCNConv, GINConv


@pytest.fixture
def graph():
    rng = np.random.default_rng(1)
    edge_index = np.array([[0, 1, 2, 3, 1], [1, 2, 0, 1, 0]])
    return Graph(edge_index=edge_index, x=rng.normal(size=(4, 5)))


def manual_gcn(conv: GCNConv, graph: Graph) -> np.ndarray:
    """D̂^{-1/2} Â D̂^{-1/2} X W + b with Â = A + I."""
    n = graph.num_nodes
    A = np.zeros((n, n))
    A[graph.src, graph.dst] = 1.0
    A_hat = A + np.eye(n)
    deg = A_hat.sum(axis=0)  # in-degree over augmented edges
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    # message i -> j scaled by 1/sqrt(d_i d_j): out = (D^-1/2 Â D^-1/2)^T X W
    norm = (d_inv_sqrt[:, None] * A_hat) * d_inv_sqrt[None, :]
    return norm.T @ (graph.x @ conv.weight.numpy()) + conv.bias.numpy()


def manual_gin(conv: GINConv, graph: Graph) -> np.ndarray:
    """MLP((1 + eps) x_j + Σ_{i -> j} x_i)."""
    agg = np.zeros_like(graph.x)
    for u, v in zip(graph.src, graph.dst):
        agg[v] += graph.x[u]
    eps = conv.eps.numpy()[0] if conv.eps is not None else 0.0
    agg += (1.0 + eps) * graph.x

    lin1, _, lin2 = conv.mlp.layers
    h = agg @ lin1.weight.numpy() + lin1.bias.numpy()
    h = np.maximum(h, 0.0)
    return h @ lin2.weight.numpy() + lin2.bias.numpy()


class TestGCNManual:
    def test_matches_manual(self, graph):
        conv = GCNConv(5, 6, rng=0)
        assert np.allclose(
            conv(Tensor(graph.x), graph.edge_index, graph.num_nodes).numpy(),
            manual_gcn(conv, graph), atol=1e-10,
        )

    def test_unnormalized_is_sum_aggregation(self, graph):
        conv = GCNConv(5, 6, normalize=False, bias=False, rng=0)
        h = graph.x @ conv.weight.numpy()
        expected = h.copy()  # self loops
        for u, v in zip(graph.src, graph.dst):
            expected[v] += h[u]
        out = conv(Tensor(graph.x), graph.edge_index, graph.num_nodes).numpy()
        assert np.allclose(out, expected, atol=1e-10)

    def test_isolated_node_keeps_own_signal(self):
        g = Graph(edge_index=np.array([[0], [1]]), x=np.eye(3))
        conv = GCNConv(3, 4, bias=False, rng=0)
        out = conv(Tensor(g.x), g.edge_index, g.num_nodes).numpy()
        # node 2 has no incoming data edges; output = self-loop only
        expected = (g.x @ conv.weight.numpy())[2]  # deg 1 → norm 1
        assert np.allclose(out[2], expected, atol=1e-10)


class TestGINManual:
    def test_matches_manual(self, graph):
        conv = GINConv(5, 6, rng=0)
        assert np.allclose(
            conv(Tensor(graph.x), graph.edge_index, graph.num_nodes).numpy(),
            manual_gin(conv, graph), atol=1e-10,
        )

    def test_eps_changes_self_weight_only(self, graph):
        conv = GINConv(5, 6, rng=0)
        conv.eps.data = np.array([1.0])
        out = conv(Tensor(graph.x), graph.edge_index, graph.num_nodes).numpy()
        assert np.allclose(out, manual_gin(conv, graph), atol=1e-10)
