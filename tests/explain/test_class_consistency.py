"""Every node explainer explains the model's full-graph prediction, at the
cost of the target's receptive field.

``Explainer.node_context`` hands explainers the target's L-hop incoming
neighborhood, whose sparse cache carries the full graph's degrees, so a
forward over the context equals the full-graph forward at the target row.
Node explainers take their class from that forward. These tests pin the
consequences: the context forward, and a structural edge removal on it,
are exact on pathological graphs for GCN, GIN and GAT; every registered
node explainer reports the full-graph argmax; and no ``explain_node``
call runs a forward over, or hashes the features of, the full graph.
Every forward a node explainer differentiates runs on the context's own
sparse cache, so it is the forward whose class the explanation reports.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import no_grad
from repro.autograd.tensor import is_grad_enabled
from repro.core.revelio import clear_explanation_cache
from repro.explain import EXPLAINERS, ExplainTarget, make_explainer
from repro.explain.base import clear_context_cache
from repro.flows import invalidate
from repro.graph import Graph
from repro.nn import models
from repro.nn.models import GNN, build_model
from repro.sparse import sparse_cache

FAST = {
    "gradcam": {},
    "deeplift": {},
    "gnnexplainer": {"epochs": 5},
    "pgexplainer": {"epochs": 3},
    "graphmask": {"epochs": 3},
    "pgm_explainer": {"num_samples": 10},
    "subgraphx": {"rollouts": 2, "shapley_samples": 2},
    "gnn_lrp": {},
    "flowx": {"samples": 1, "finetune_epochs": 5},
    "relevant_walks": {},
    "revelio": {"epochs": 5},
    "revelio_topk": {"epochs": 5, "k": 4},
    "random": {},
}

NUM_FEATURES = 4
NUM_CLASSES = 3
#: The context forward is expected to be bitwise equal; this is the ceiling.
EXACT_TOL = 1e-12


def _make(method, model, graph, nodes):
    """A ready explainer; group methods are fitted on ``nodes`` first."""
    explainer = make_explainer(method, model, **FAST[method])
    if hasattr(explainer, "fit"):
        explainer.fit(explainer.prepare_instances(
            graph, [ExplainTarget.node(v) for v in nodes]))
    return explainer


def test_every_registered_node_explainer_is_covered():
    assert set(FAST) == set(EXPLAINERS) | {"revelio", "revelio_topk"}


# ----------------------------------------------------------------------
# the context forward is exact
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _untrained(conv: str) -> GNN:
    # Exactness is a property of the forward machinery, not of the fit.
    return build_model(conv, "node", NUM_FEATURES, NUM_CLASSES, hidden=8, rng=0)


@st.composite
def pathological_graphs(draw):
    """Two random components (self-loops and duplicate edges allowed), an
    isolated node, a node with out-edges only, and duplicated edges."""
    sizes = draw(st.tuples(st.integers(1, 7), st.integers(0, 5)))
    edges: list[tuple[int, int]] = []
    offset = 0
    for size in sizes:
        if size:
            pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)),
                                  max_size=3 * size))
            edges += [(u + offset, v + offset) for u, v in pairs]
        offset += size
    isolated, source = offset, offset + 1
    num_nodes = offset + 2
    edges += [(source, v) for v in draw(st.lists(st.integers(0, sizes[0] - 1),
                                                 min_size=1, max_size=3))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).normal(size=(num_nodes, NUM_FEATURES))
    edge_index = np.array(edges, dtype=np.int64).T.reshape(2, -1)
    return Graph(edge_index=edge_index, x=x), isolated, source


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@settings(max_examples=30, deadline=None)
@given(case=pathological_graphs())
def test_context_forward_equals_full_graph_row(conv, case):
    graph, isolated, source = case
    model = _untrained(conv)
    probe = make_explainer("random", model)
    with no_grad():
        full = model.forward_graph(graph).numpy()
        worst = 0.0
        for v in range(graph.num_nodes):
            context = probe.node_context(graph, v)
            local = model.forward_graph(context.subgraph).numpy()[context.local_target]
            worst = max(worst, float(np.abs(local - full[v]).max()))
    assert worst <= EXACT_TOL
    assert probe.node_context(graph, isolated).subgraph.num_nodes == 1
    assert probe.node_context(graph, source).subgraph.num_edges == 0


def _single_removals(graph: Graph, num_layers: int, positions) -> np.ndarray:
    """One structural mask per position: that data edge removed at every layer."""
    masks = np.ones((len(positions), num_layers,
                     graph.num_edges + graph.num_nodes))
    masks[np.arange(len(positions)), :, positions] = 0.0
    return masks


@pytest.mark.parametrize("conv", ["gcn", "gin", "gat"])
@settings(max_examples=30, deadline=None)
@given(case=pathological_graphs())
def test_context_edge_removal_equals_full_graph_removal(conv, case):
    """Removing one context edge on the context equals the same removal on
    the full graph: a boundary node keeps the in-edges the context cut off."""
    graph, _, _ = case
    model = _untrained(conv)
    probe = make_explainer("random", model)
    worst = 0.0
    for v in range(graph.num_nodes):
        context = probe.node_context(graph, v)
        if context.subgraph.num_edges == 0:
            continue
        local = model.forward_masked_batch(
            context.subgraph,
            _single_removals(context.subgraph, model.num_layers,
                             np.arange(context.subgraph.num_edges)),
            structural=True)[:, context.local_target]
        full = model.forward_masked_batch(
            graph, _single_removals(graph, model.num_layers, context.edge_positions),
            structural=True)[:, v]
        worst = max(worst, float(np.abs(local - full).max()))
    assert worst <= EXACT_TOL


# ----------------------------------------------------------------------
# every node explainer explains the full-graph argmax
# ----------------------------------------------------------------------
def test_predicted_class_in_context_is_full_graph_argmax(node_model, mini_ba_shapes):
    graph = mini_ba_shapes.graph
    full = node_model.predict(graph)
    probe = make_explainer("random", node_model)
    for v in range(graph.num_nodes):
        context = probe.node_context(graph, v)
        assert probe.predicted_class(context.subgraph, context.local_target) == full[v]


@pytest.mark.parametrize("method", sorted(FAST))
def test_explained_class_is_full_graph_prediction(method, node_model, mini_ba_shapes):
    graph = mini_ba_shapes.graph
    full = node_model.predict(graph)
    nodes = [0, int(mini_ba_shapes.motif_nodes[0]), graph.num_nodes - 1]
    explainer = _make(method, node_model, graph, nodes)
    for node in nodes:
        e = explainer.explain(graph, ExplainTarget.node(node))
        assert e.predicted_class == full[node], (method, node)


# ----------------------------------------------------------------------
# explain_node never touches the full graph
# ----------------------------------------------------------------------
class _Sha1Spy:
    """A sha1 object that records whether it was fed ``forbidden`` whole."""

    def __init__(self, forbidden: bytes, hits: list, data: bytes = b"", **kwargs):
        self._forbidden = forbidden
        self._hits = hits
        self._h = _REAL_SHA1(**kwargs)
        self.update(data)

    def update(self, data) -> None:
        data = bytes(data)
        if data == self._forbidden:
            self._hits.append(len(data))
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()

    def digest(self) -> bytes:
        return self._h.digest()


_REAL_SHA1 = hashlib.sha1


@pytest.mark.parametrize("method", sorted(FAST))
def test_explain_node_never_touches_the_full_graph(method, node_model, mini_ba_shapes,
                                                   monkeypatch):
    graph = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    explainer = _make(method, node_model, graph, [node])  # fit is exempt
    context_size = explainer.node_context(graph, node).subgraph.num_nodes
    assert context_size < graph.num_nodes
    clear_context_cache()
    clear_explanation_cache()
    invalidate()

    forwards: list[Graph] = []
    for name in ("forward_graph", "predict_proba", "forward_masked_batch"):
        def spy(self, g, *args, _original=getattr(GNN, name), **kwargs):
            forwards.append(g)
            return _original(self, g, *args, **kwargs)
        monkeypatch.setattr(GNN, name, spy)
    full_hashes: list[int] = []
    forbidden = np.ascontiguousarray(graph.x).tobytes()
    monkeypatch.setattr(hashlib, "sha1",
                        lambda *a, **k: _Sha1Spy(forbidden, full_hashes, *a, **k))

    explainer.explain(graph, ExplainTarget.node(node))
    assert forwards, f"{method} ran no forward at all"
    assert all(g is not graph and g.num_nodes <= context_size for g in forwards)
    assert not full_hashes, f"{method} hashed the full feature matrix"


@pytest.mark.parametrize("method", sorted(FAST))
def test_differentiated_forwards_run_on_the_context_cache(method, node_model, mini_ba_shapes,
                                                          monkeypatch):
    """A forward without the context's cache falls back to one keyed on the
    bare edge list, whose degrees are the context's own; at a boundary
    node those differ from the source graph's, so the gradient would be
    that of another model than the one ``predicted_class`` reads."""
    graph = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    explainer = _make(method, node_model, graph, [node])
    context = explainer.node_context(graph, node)
    own = np.bincount(context.subgraph.dst, minlength=context.subgraph.num_nodes)
    assert (own < np.bincount(graph.dst, minlength=graph.num_nodes)[context.node_ids]).any()
    clear_explanation_cache()
    invalidate()

    caches = []

    def spy(*args, _original=models.run_convs, **kwargs):
        if is_grad_enabled():
            caches.append(args[5])
        return _original(*args, **kwargs)

    monkeypatch.setattr(models, "run_convs", spy)
    explainer.explain(graph, ExplainTarget.node(node))
    expected = sparse_cache(context.subgraph)
    assert all(cache is expected for cache in caches), method
