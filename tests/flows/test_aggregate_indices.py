"""Precomputed scatter indices in FlowIndex.aggregate_scores.

The index arrays are built lazily once and reused on every mask-learning
epoch; these tests pin down that the cached-index path is bit-identical to
a freshly built gather/scatter, agrees with the numpy aggregation, and
keeps gradients exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.grad_check import check_gradients
from repro.flows import enumerate_flows
from repro.graph import Graph


@pytest.fixture
def flow_index():
    edge_index = np.array([[0, 0, 1, 2, 1], [1, 2, 3, 3, 2]])
    graph = Graph(edge_index=edge_index, x=np.eye(4))
    return enumerate_flows(graph, 2, target=3)


def fresh_aggregation(flow_index, scores):
    """Eq. 3 through a gather/scatter index built from scratch."""
    num_flows, num_layers = flow_index.num_flows, flow_index.num_layers
    width = flow_index.num_layer_edges
    gather = np.tile(np.arange(num_flows), num_layers)
    scatter = (np.repeat(np.arange(num_layers), num_flows) * width
               + flow_index.layer_edges.T.reshape(-1))
    flat = Tensor(scores).gather_rows(gather).scatter_add(scatter, num_layers * width)
    return flat.reshape(num_layers, width).numpy()


def test_reused_indices_match_fresh_build(flow_index):
    rng = np.random.default_rng(0)
    scores = rng.normal(size=flow_index.num_flows)
    cached = flow_index.aggregate_scores(Tensor(scores)).numpy()
    np.testing.assert_array_equal(cached, fresh_aggregation(flow_index, scores))
    # Second cached call reuses the same arrays and stays identical.
    again = flow_index.aggregate_scores(Tensor(scores)).numpy()
    np.testing.assert_array_equal(cached, again)


def test_numpy_aggregation_matches_tensor_path(flow_index):
    rng = np.random.default_rng(1)
    scores = rng.normal(size=flow_index.num_flows)
    np.testing.assert_allclose(
        flow_index.aggregate_scores_np(scores),
        flow_index.aggregate_scores(Tensor(scores)).numpy(),
        atol=1e-12,
    )


def test_gradients_exact_with_precomputed_indices(flow_index):
    rng = np.random.default_rng(2)
    masks = Tensor(rng.normal(size=flow_index.num_flows), requires_grad=True)
    weights = Tensor(rng.normal(size=(flow_index.num_layers, flow_index.num_layer_edges)))

    # Warm the index cache first so the grad check exercises the reuse path.
    flow_index.aggregate_scores(masks)

    def objective():
        omega = flow_index.aggregate_scores(masks.tanh()).sigmoid()
        return (omega * weights).sum()

    check_gradients(objective, [masks])
