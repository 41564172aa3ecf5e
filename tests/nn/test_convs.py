"""Convolution layers: shapes, mask semantics, gradients.

The critical contract for the whole library: a mask of all-ones must be a
no-op, a zero mask must silence exactly that layer edge's message, and
gradients must flow through masks (they are Revelio's optimization target).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.grad_check import check_gradients
from repro.errors import ShapeError
from repro.graph import Graph
from repro.nn import GATConv, GCNConv, GINConv, augment_edges, num_layer_edges


@pytest.fixture
def graph():
    edge_index = np.array([[0, 1, 1, 2, 3], [1, 0, 2, 1, 2]])
    rng = np.random.default_rng(0)
    return Graph(edge_index=edge_index, x=rng.normal(size=(4, 6)))


def convs(rng=0):
    return [
        GCNConv(6, 5, rng=rng),
        GCNConv(6, 5, normalize=False, rng=rng),
        GINConv(6, 5, rng=rng),
        GATConv(6, 5, heads=1, rng=rng),
        GATConv(6, 4, heads=2, concat_heads=True, rng=rng),
        GATConv(6, 5, heads=3, concat_heads=False, rng=rng),
    ]


def out_dim(conv):
    if isinstance(conv, GATConv):
        return conv.out_features * (conv.heads if conv.concat_heads else 1)
    return conv.out_features


class TestShapes:
    @pytest.mark.parametrize("conv_idx", range(6))
    def test_output_shape(self, graph, conv_idx):
        conv = convs()[conv_idx]
        out = conv(Tensor(graph.x), graph.edge_index, graph.num_nodes)
        assert out.shape == (4, out_dim(conv))

    def test_augment_edges_layout(self, graph):
        src, dst = augment_edges(graph.edge_index, graph.num_nodes)
        assert src.shape[0] == graph.num_edges + graph.num_nodes
        # last N entries are self-loops
        assert np.array_equal(src[-4:], np.arange(4))
        assert np.array_equal(dst[-4:], np.arange(4))

    def test_num_layer_edges(self):
        assert num_layer_edges(5, 4) == 9

    @pytest.mark.parametrize("conv_idx", range(6))
    def test_wrong_mask_length_rejected(self, graph, conv_idx):
        conv = convs()[conv_idx]
        bad = Tensor(np.ones(3))
        with pytest.raises(ShapeError):
            conv(Tensor(graph.x), graph.edge_index, graph.num_nodes, edge_mask=bad)


class TestMaskSemantics:
    @pytest.mark.parametrize("conv_idx", range(6))
    def test_ones_mask_is_identity(self, graph, conv_idx):
        conv = convs()[conv_idx]
        x = Tensor(graph.x)
        plain = conv(x, graph.edge_index, graph.num_nodes).numpy()
        ones = Tensor(np.ones(num_layer_edges(graph.num_edges, graph.num_nodes)))
        masked = conv(x, graph.edge_index, graph.num_nodes, edge_mask=ones).numpy()
        assert np.allclose(plain, masked)

    @pytest.mark.parametrize("conv_idx", range(6))
    def test_zero_mask_silences_all(self, graph, conv_idx):
        conv = convs()[conv_idx]
        x = Tensor(graph.x)
        zeros = Tensor(np.zeros(num_layer_edges(graph.num_edges, graph.num_nodes)))
        out = conv(x, graph.edge_index, graph.num_nodes, edge_mask=zeros).numpy()
        # Aggregation is zero everywhere; only bias/MLP-of-zero remains, so
        # every node's output row must be identical.
        assert np.allclose(out, out[0])

    def test_zero_one_edge_affects_only_its_destination(self, graph):
        conv = GCNConv(6, 5, rng=0)
        x = Tensor(graph.x)
        full = np.ones(num_layer_edges(graph.num_edges, graph.num_nodes))
        plain = conv(x, graph.edge_index, graph.num_nodes, edge_mask=Tensor(full)).numpy()
        # Edge 0 is 0 -> 1: masking it must change node 1 only.
        killed = full.copy()
        killed[0] = 0.0
        masked = conv(x, graph.edge_index, graph.num_nodes, edge_mask=Tensor(killed)).numpy()
        changed = ~np.isclose(plain, masked).all(axis=1)
        assert changed.tolist() == [False, True, False, False]

    def test_self_loop_mask_affects_own_node(self, graph):
        conv = GINConv(6, 5, rng=0)
        x = Tensor(graph.x)
        full = np.ones(num_layer_edges(graph.num_edges, graph.num_nodes))
        plain = conv(x, graph.edge_index, graph.num_nodes, edge_mask=Tensor(full)).numpy()
        killed = full.copy()
        killed[graph.num_edges + 2] = 0.0  # node 2's self-loop
        masked = conv(x, graph.edge_index, graph.num_nodes, edge_mask=Tensor(killed)).numpy()
        changed = ~np.isclose(plain, masked).all(axis=1)
        assert changed.tolist() == [False, False, True, False]

    def test_half_mask_scales_message_linearly_gcn(self, graph):
        # For GCN (linear in messages), mask 0.5 on an edge = average of
        # mask 0 and mask 1 outputs at the destination.
        conv = GCNConv(6, 5, bias=False, rng=0)
        x = Tensor(graph.x)
        n = num_layer_edges(graph.num_edges, graph.num_nodes)

        def run(v):
            m = np.ones(n)
            m[0] = v
            return conv(x, graph.edge_index, graph.num_nodes, edge_mask=Tensor(m)).numpy()

        assert np.allclose(run(0.5), 0.5 * (run(0.0) + run(1.0)))


class TestGradients:
    @pytest.mark.parametrize("conv_idx", range(6))
    def test_mask_gradients_match_numerics(self, graph, conv_idx):
        conv = convs()[conv_idx]
        for p in conv.parameters():
            p.requires_grad = False
        x = Tensor(graph.x)
        mask = Tensor(
            np.random.default_rng(1).uniform(0.3, 0.9,
                                             num_layer_edges(graph.num_edges, graph.num_nodes)),
            requires_grad=True,
        )
        check_gradients(
            lambda: (conv(x, graph.edge_index, graph.num_nodes, edge_mask=mask) ** 2).sum(),
            [mask], atol=1e-4, rtol=1e-3,
        )

    def test_weight_gradients_gcn(self, graph):
        conv = GCNConv(6, 3, rng=0)
        x = Tensor(graph.x)
        check_gradients(
            lambda: (conv(x, graph.edge_index, graph.num_nodes) ** 2).sum(),
            [conv.weight, conv.bias], atol=1e-4, rtol=1e-3,
        )

    def test_gat_attention_normalized(self, graph):
        conv = GATConv(6, 4, heads=2, rng=0)
        src, dst = augment_edges(graph.edge_index, graph.num_nodes)
        # indirect check: output is a convex combination bound — each output
        # row (pre-bias) has norm at most the max projected input row norm.
        x = Tensor(graph.x)
        out = conv(x, graph.edge_index, graph.num_nodes)
        assert np.isfinite(out.numpy()).all()


class TestGINSpecifics:
    def test_eps_contributes(self, graph):
        conv = GINConv(6, 5, rng=0)
        x = Tensor(graph.x)
        base = conv(x, graph.edge_index, graph.num_nodes).numpy()
        conv.eps.data = np.array([5.0])
        boosted = conv(x, graph.edge_index, graph.num_nodes).numpy()
        assert not np.allclose(base, boosted)

    def test_fixed_eps_variant(self, graph):
        conv = GINConv(6, 5, train_eps=False, rng=0)
        assert conv.eps is None
        out = conv(Tensor(graph.x), graph.edge_index, graph.num_nodes)
        assert out.shape == (4, 5)
