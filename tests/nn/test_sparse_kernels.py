"""CSR kernel path vs. the dense-scatter reference backend.

The scipy backend (cached-CSR matmuls, fused gather_scatter) is the
engine's default; the numpy backend re-implements every op with
``np.add.at`` / ``np.maximum.at`` exactly as the pre-kernel code paths
did. This suite pins the two against each other through the full batched
forward for every conv and both masking semantics, through one training
epoch's parameter gradients, and through the edge-major / node-major
scatter helpers directly — so a new backend (or a
kernel rewrite) has a complete equivalence oracle to clear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import cross_entropy
from repro.graph import Graph
from repro.nn import build_model
from repro.nn.batched import (
    scatter_edge_major,
    scatter_rows_np,
    segment_softmax_edge_major,
    segment_softmax_np,
)
from repro.nn.message_passing import num_layer_edges
from repro.sparse import use_backend

EQ_TOL = 1e-8


@pytest.fixture(scope="module")
def wheel_graph():
    rng = np.random.default_rng(7)
    edges = []
    n = 9
    for v in range(1, n):
        edges.append((0, v))
        edges.append((v, 0))
        edges.append((v, 1 + v % (n - 1)))
    edge_index = np.array(edges).T
    x = rng.normal(size=(n, 5))
    return Graph(edge_index=edge_index, x=x)


def _mask_stack(graph, num_layers, B, structural, seed=11):
    rng = np.random.default_rng(seed)
    width = num_layer_edges(graph.num_edges, graph.num_nodes)
    if structural:
        keeps = rng.random((B, graph.num_edges)) < 0.7
        stack = np.ones((B, num_layers, width))
        stack[:, :, :graph.num_edges] = keeps[:, None, :].astype(np.float64)
        return stack
    return rng.uniform(0.0, 1.0, size=(B, num_layers, width))


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@pytest.mark.parametrize("structural", [False, True],
                         ids=["eq6", "structural"])
def test_batched_forward_backends_agree(wheel_graph, conv, structural):
    g = wheel_graph
    model = build_model(conv, "node", g.x.shape[1], 3, hidden=8, rng=0)
    model.eval()
    stack = _mask_stack(g, model.num_layers, B=6, structural=structural)

    with use_backend("scipy"):
        csr = model.forward_masked_batch(g, stack, structural=structural)
    with use_backend("numpy"):
        dense = model.forward_masked_batch(g, stack, structural=structural)
    np.testing.assert_allclose(csr, dense, rtol=0, atol=EQ_TOL)


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@pytest.mark.parametrize("structural", [False, True],
                         ids=["eq6", "structural"])
def test_x_stack_forward_backends_agree(wheel_graph, conv, structural):
    """Per-row features exercise the non-shared (node-major B) path."""
    g = wheel_graph
    model = build_model(conv, "node", g.x.shape[1], 3, hidden=8, rng=1)
    model.eval()
    B = 4
    stack = _mask_stack(g, model.num_layers, B=B, structural=structural)
    rng = np.random.default_rng(23)
    x_stack = g.x[None] + 0.1 * rng.normal(size=(B,) + g.x.shape)

    with use_backend("scipy"):
        csr = model.forward_masked_batch(g, stack, structural=structural,
                                         x_stack=x_stack)
    with use_backend("numpy"):
        dense = model.forward_masked_batch(g, stack, structural=structural,
                                           x_stack=x_stack)
    np.testing.assert_allclose(csr, dense, rtol=0, atol=EQ_TOL)


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
def test_training_epoch_gradients_backends_agree(wheel_graph, conv):
    """One full-batch epoch (forward, loss, backward): every parameter's
    gradient on the CSR kernels equals the ``np.add.at`` backend's."""
    g = wheel_graph
    labels = np.random.default_rng(5).integers(0, 3, size=g.num_nodes)
    model = build_model(conv, "node", g.x.shape[1], 3, hidden=8, rng=2)
    model.train()

    def epoch_grads():
        model.zero_grad()
        cross_entropy(model.forward_graph(g), labels).backward()
        return [np.array(p.grad, copy=True) for p in model.parameters()]

    with use_backend("scipy"):
        csr = epoch_grads()
    with use_backend("numpy"):
        dense = epoch_grads()
    assert len(csr) == len(dense) > 0
    for a, b in zip(csr, dense):
        assert np.abs(a).max() > 0
        np.testing.assert_allclose(a, b, rtol=0, atol=EQ_TOL)


class TestScatterHelpers:
    """Edge-major and batch-major helpers, both backends, same numbers."""

    @pytest.fixture()
    def scatter_inputs(self):
        rng = np.random.default_rng(3)
        index = rng.integers(0, 10, size=50)
        values = rng.normal(size=(4, 50, 6))  # (B, A, F)
        return index, values

    def test_scatter_layouts_and_backends_agree(self, scatter_inputs):
        index, values = scatter_inputs
        outs = []
        for backend in ("scipy", "numpy"):
            with use_backend(backend):
                batch_major = scatter_rows_np(values, index, 10)
                edge_major = scatter_edge_major(
                    np.ascontiguousarray(values.transpose(1, 0, 2)), index, 10
                )
            outs.append((batch_major, edge_major))
            np.testing.assert_allclose(
                batch_major, edge_major.transpose(1, 0, 2), rtol=0, atol=EQ_TOL
            )
        np.testing.assert_allclose(outs[0][0], outs[1][0], rtol=0, atol=EQ_TOL)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_softmax_layouts_and_backends_agree(self, weighted):
        rng = np.random.default_rng(4)
        A, B, H, N = 40, 3, 2, 8
        segment_ids = rng.integers(0, N, size=A)
        scores = rng.normal(size=(B, A, H))
        weights = (rng.random((B, A)) < 0.8).astype(np.float64) if weighted else None
        outs = []
        for backend in ("scipy", "numpy"):
            with use_backend(backend):
                batch_major = segment_softmax_np(scores, segment_ids, N,
                                                 weights=weights)
                edge_major = segment_softmax_edge_major(
                    np.ascontiguousarray(scores.transpose(1, 0, 2)),
                    segment_ids, N,
                    weights=None if weights is None
                    else np.ascontiguousarray(weights.T),
                )
            outs.append(batch_major)
            np.testing.assert_allclose(
                batch_major, edge_major.transpose(1, 0, 2), rtol=0, atol=EQ_TOL
            )
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=EQ_TOL)
