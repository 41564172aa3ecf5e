"""Batched masked-forward engine vs. a loop of single forwards.

The engine's contract: ``GNN.forward_masked_batch(graph, mask_stack)``
equals stacking ``forward_graph`` calls with the same per-layer masks, for
every conv type and both tasks; structural binary masks reproduce
``Graph.with_edges`` removal exactly. Its kernel dispatches per call are
pinned op by op.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, softmax
from repro.errors import ModelError, ShapeError
from repro.graph import Graph
from repro.nn import build_model
from repro.nn.message_passing import num_layer_edges
from repro.sparse import OPS, kernel, register_kernel, use_backend


@pytest.fixture(scope="module")
def wheel_graph():
    """A hub-and-ring graph: enough structure for attention to matter."""
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


def _serial_logits(model, graph, masks_one):
    with no_grad():
        tensors = [Tensor(masks_one[l]) for l in range(masks_one.shape[0])]
        return model.forward_graph(graph, edge_masks=tensors).numpy()


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@pytest.mark.parametrize("task", ["node", "graph"])
def test_batched_equals_single_forward_loop(wheel_graph, conv, task):
    g = wheel_graph
    model = build_model(conv, task, g.x.shape[1], 3, hidden=8, rng=0)
    model.eval()
    rng = np.random.default_rng(11)
    width = num_layer_edges(g.num_edges, g.num_nodes)
    B = 6
    stack = rng.uniform(0.0, 1.0, size=(B, model.num_layers, width))

    batched = model.forward_masked_batch(g, stack)
    serial = np.stack([_serial_logits(model, g, stack[b]) for b in range(B)])
    np.testing.assert_allclose(batched, serial, rtol=0, atol=1e-10)


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@pytest.mark.parametrize("task", ["node", "graph"])
def test_structural_masks_equal_edge_removal(wheel_graph, conv, task):
    g = wheel_graph
    model = build_model(conv, task, g.x.shape[1], 3, hidden=8, rng=1)
    model.eval()
    rng = np.random.default_rng(3)
    width = num_layer_edges(g.num_edges, g.num_nodes)
    B = 5
    keeps = rng.random((B, g.num_edges)) < 0.7
    stack = np.ones((B, model.num_layers, width))
    stack[:, :, :g.num_edges] = keeps[:, None, :].astype(np.float64)

    batched = model.forward_masked_batch(g, stack, structural=True)
    for b in range(B):
        with no_grad():
            expected = model.forward_graph(g.with_edges(keeps[b])).numpy()
        np.testing.assert_allclose(batched[b], expected, rtol=0, atol=1e-10)


def test_predict_proba_batch_matches_softmax(wheel_graph):
    g = wheel_graph
    model = build_model("gcn", "node", g.x.shape[1], 3, hidden=8, rng=2)
    model.eval()
    rng = np.random.default_rng(5)
    width = num_layer_edges(g.num_edges, g.num_nodes)
    stack = rng.uniform(size=(4, model.num_layers, width))
    probs = model.predict_proba_batch(g, stack)
    logits = model.forward_masked_batch(g, stack)
    with no_grad():
        expected = softmax(Tensor(logits.reshape(-1, logits.shape[-1])), axis=-1).numpy()
    np.testing.assert_allclose(probs.reshape(-1, probs.shape[-1]), expected, atol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-10)


def test_x_stack_batches_feature_perturbations(wheel_graph):
    g = wheel_graph
    model = build_model("gin", "node", g.x.shape[1], 3, hidden=8, rng=4)
    model.eval()
    rng = np.random.default_rng(9)
    x_stack = g.x[None, :, :] * rng.uniform(0.0, 1.5, size=(3, g.num_nodes, 1))
    batched = model.forward_masked_batch(g, x_stack=x_stack)
    for b in range(3):
        work = g.copy()
        work.x = x_stack[b]
        with no_grad():
            expected = model.forward_graph(work).numpy()
        np.testing.assert_allclose(batched[b], expected, atol=1e-10)


def test_mask_stack_shape_validation(wheel_graph):
    g = wheel_graph
    model = build_model("gcn", "node", g.x.shape[1], 3, hidden=8, rng=0)
    model.eval()
    width = num_layer_edges(g.num_edges, g.num_nodes)
    with pytest.raises(ShapeError):
        model.forward_masked_batch(g, np.ones((2, model.num_layers, width - 1)))
    with pytest.raises(ShapeError):
        model.forward_masked_batch(g, np.ones((2, model.num_layers + 1, width)))
    with pytest.raises(ModelError):
        model.forward_masked_batch(g)  # neither masks nor features


#: Kernel dispatches of one node-task ``forward_masked_batch`` call of a
#: 3-layer model, per op: GCN and GIN run one fused ``gather_scatter`` per
#: layer (structural GCN adds one degree ``scatter_add``); GAT runs its
#: softmax's ``segment_max`` and denominator ``scatter_add`` plus the
#: aggregation ``scatter_add``.
KERNEL_DISPATCHES = {
    "gcn": {"eq6": {"gather_scatter": 3},
            "structural": {"gather_scatter": 3, "scatter_add": 3},
            "x_stack": {"gather_scatter": 3}},
    "gin": dict.fromkeys(("eq6", "structural", "x_stack"), {"gather_scatter": 3}),
    "gat": dict.fromkeys(("eq6", "structural", "x_stack"),
                         {"scatter_add": 6, "segment_max": 3}),
}


@pytest.fixture()
def dispatch_counts():
    """Count kernel calls through a backend registered like any plugin."""
    counts = Counter()

    def counted(op):
        fn = kernel(op)

        def wrapper(*args):
            counts[op] += 1
            return fn(*args)
        return wrapper

    register_kernel("scatter_add", "dispatch-count", counted("scatter_add"))
    register_kernel("segment_max", "dispatch-count", counted("segment_max"))
    register_kernel("spmm", "dispatch-count", counted("spmm"))
    register_kernel("gather_scatter", "dispatch-count", counted("gather_scatter"))
    assert len(OPS) == 4  # every op counted, none falls back uncounted
    with use_backend("dispatch-count"):
        yield counts


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@pytest.mark.parametrize("mode", ["eq6", "structural", "x_stack"])
def test_kernel_dispatches_per_call(wheel_graph, dispatch_counts, conv, mode):
    g = wheel_graph
    model = build_model(conv, "node", g.x.shape[1], 3, hidden=8, rng=0)
    model.eval()
    rng = np.random.default_rng(1)
    width = num_layer_edges(g.num_edges, g.num_nodes)
    B = 4
    if mode == "eq6":
        kwargs = {"mask_stack": rng.uniform(size=(B, model.num_layers, width))}
    elif mode == "structural":
        stack = np.ones((B, model.num_layers, width))
        stack[:, :, :g.num_edges] = rng.random((B, 1, g.num_edges)) < 0.7
        kwargs = {"mask_stack": stack, "structural": True}
    else:
        kwargs = {"x_stack": g.x[None] + 0.1 * rng.normal(size=(B,) + g.x.shape)}

    model.forward_masked_batch(g, **kwargs)
    assert dict(dispatch_counts) == KERNEL_DISPATCHES[conv][mode]
