"""CSR kernel path vs. the dense-scatter reference backend.

The scipy backend (cached-CSR matmuls, fused gather_scatter) is the
engine's default; the numpy backend re-implements every op with
``np.add.at`` / ``np.maximum.at`` exactly as the pre-kernel code paths
did. This suite pins the two (and numba's segment kernels, wherever
numba is installed) against each other through the full batched
forward for every conv and both masking semantics, through one training
epoch's parameter gradients, and through the two primitives the batched
forward dispatches through — ``propagate`` with an ``(A, B)`` mask and
``segment_softmax`` with and without ``weights`` — so a new backend (or a
kernel rewrite) has a complete equivalence oracle to clear.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy, no_grad, propagate, segment_softmax
from repro.graph import Graph
from repro.nn import build_model
from repro.nn.message_passing import num_layer_edges
from repro.sparse import NUMBA_AVAILABLE, GraphSparseCache, use_backend

EQ_TOL = 1e-8
#: The numpy reference first; numba's segment kernels join wherever installed.
BACKENDS = ("numpy", "scipy") + (("numba",) if NUMBA_AVAILABLE else ())


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

    outs = []
    for backend in BACKENDS:
        with use_backend(backend):
            outs.append(model.forward_masked_batch(g, stack, structural=structural))
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], rtol=0, atol=EQ_TOL)


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

    outs = []
    for backend in BACKENDS:
        with use_backend(backend):
            outs.append(model.forward_masked_batch(g, stack, structural=structural,
                                                   x_stack=x_stack))
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], rtol=0, atol=EQ_TOL)


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
    """Batched ``(A, B)`` and per-row layouts, every backend, same numbers."""

    def test_scatter_layouts_and_backends_agree(self):
        """``propagate`` with an ``(A, B)`` mask (the fused gather_scatter
        kernel) equals ``B`` per-row ``(A,)`` propagates (the chain), on
        random edges with duplicates; the larger graph crosses the scipy
        kernel's per-row fused-CSR threshold."""
        rng = np.random.default_rng(3)
        for num_nodes, num_edges in ((10, 50), (200, 2100)):
            cache = GraphSparseCache(rng.integers(0, num_nodes, size=(2, num_edges)),
                                     num_nodes)
            self._check_propagate_layouts(cache, rng)

    @staticmethod
    def _check_propagate_layouts(cache, rng):
        A, N, B = cache.src.shape[0], cache.num_nodes, 4
        mask = rng.uniform(size=(A, B))
        cases = [  # (states, coeff): per-row/shared states, (A, 1)/(A, B)/no coeff
            (rng.normal(size=(N, B, 6)), rng.uniform(0.1, 1.0, size=(A, 1))),
            (rng.normal(size=(N, 1, 6)), rng.uniform(0.1, 1.0, size=(A, B))),
            (rng.normal(size=(N, B, 6)), None),
        ]
        for states, coeff in cases:
            outs = []
            for backend in BACKENDS:
                with use_backend(backend), no_grad():
                    batched = propagate(Tensor(states), cache,
                                        None if coeff is None else Tensor(coeff),
                                        Tensor(mask)).numpy()
                    rows = np.stack([
                        propagate(Tensor(states[:, min(b, states.shape[1] - 1)]), cache,
                                  None if coeff is None
                                  else Tensor(coeff[:, min(b, coeff.shape[1] - 1), None]),
                                  Tensor(mask[:, b])).numpy()
                        for b in range(B)], axis=1)
                outs.append(batched)
                assert batched.shape == (N, B, 6)
                np.testing.assert_allclose(batched, rows, rtol=0, atol=EQ_TOL)
            for out in outs[1:]:
                np.testing.assert_allclose(out, outs[0], rtol=0, atol=EQ_TOL)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_softmax_layouts_and_backends_agree(self, weighted):
        """``segment_softmax`` over ``(A, B, H)`` logits equals ``B``
        per-row calls; binary ``weights`` renormalize over kept rows and
        a segment with none kept is all zeros."""
        rng = np.random.default_rng(4)
        A, B, H, N = 40, 3, 2, 8
        segment_ids = rng.integers(0, N, size=A)
        scores = rng.normal(size=(A, B, H))
        weights = None
        if weighted:
            weights = (rng.random((A, B)) < 0.8).astype(np.float64)
            weights[segment_ids == segment_ids[0], 0] = 0.0
        outs = []
        for backend in BACKENDS:
            with use_backend(backend):
                batched = segment_softmax(Tensor(scores), segment_ids, N,
                                          weights=weights).numpy()
                rows = np.stack([
                    segment_softmax(Tensor(scores[:, b]), segment_ids, N,
                                    weights=None if weights is None else weights[:, b]
                                    ).numpy()
                    for b in range(B)], axis=1)
            outs.append(batched)
            np.testing.assert_allclose(batched, rows, rtol=0, atol=EQ_TOL)
        for out in outs[1:]:
            np.testing.assert_allclose(out, outs[0], rtol=0, atol=EQ_TOL)

        kept = np.ones((A, B)) if weights is None else weights
        totals = np.zeros((N, B, H))
        np.add.at(totals, segment_ids, outs[0])
        has_kept = np.zeros((N, B))
        np.add.at(has_kept, segment_ids, kept)
        np.testing.assert_allclose(totals, np.broadcast_to(has_kept[:, :, None] > 0, totals.shape),
                                   rtol=0, atol=EQ_TOL)
        assert not outs[0][kept == 0].any()
