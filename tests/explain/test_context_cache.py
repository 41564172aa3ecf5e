"""Cross-explainer node-context cache behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.explain.base import (
    CONTEXT_CACHE,
    clear_context_cache,
    context_cache_disabled,
)
from repro.explain.random_baseline import RandomExplainer
from repro.obs.counters import PERF


@pytest.fixture(autouse=True)
def _clean_cache():
    clear_context_cache()
    yield
    clear_context_cache()


def test_context_shared_across_explainer_instances(mini_ba_shapes, node_model):
    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    a = RandomExplainer(node_model).node_context(g, node)
    hits_before = PERF.context_cache_hits
    b = RandomExplainer(node_model, seed=1).node_context(g, node)
    assert b is a
    assert PERF.context_cache_hits == hits_before + 1


def test_feature_change_misses_cache(mini_ba_shapes, node_model):
    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    expl = RandomExplainer(node_model)
    a = expl.node_context(g, node)
    perturbed = g.copy()
    perturbed.x = g.x * 0.5
    b = expl.node_context(perturbed, node)
    assert b is not a
    np.testing.assert_allclose(b.subgraph.x, a.subgraph.x * 0.5)


def test_disabled_context_cache(mini_ba_shapes, node_model):
    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    expl = RandomExplainer(node_model)
    with context_cache_disabled():
        a = expl.node_context(g, node)
        b = expl.node_context(g, node)
    assert a is not b
    assert len(CONTEXT_CACHE) == 0


def test_disabled_context_cache_restores_on_raise(mini_ba_shapes, node_model):
    from repro.explain.base import _CONTEXT_CACHE_ENABLED

    assert _CONTEXT_CACHE_ENABLED[0]
    with pytest.raises(RuntimeError):
        with context_cache_disabled():
            assert not _CONTEXT_CACHE_ENABLED[0]
            raise RuntimeError("body blew up")
    assert _CONTEXT_CACHE_ENABLED[0]
    # and caching actually works again afterwards
    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    expl = RandomExplainer(node_model)
    assert expl.node_context(g, node) is expl.node_context(g, node)


# ----------------------------------------------------------------------
# key completeness: the context cache and the Revelio memo
# ----------------------------------------------------------------------
def _edits(mini_ba_shapes, node_model):
    """A target, plus copies of the graph with one edit each: a feature row
    outside the target's receptive field, one inside it, and the removal of
    an edge far from it."""
    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    context = RandomExplainer(node_model).node_context(g, node)
    outside_node = int(np.setdiff1d(np.arange(g.num_nodes), context.node_ids)[0])
    touches = np.isin(g.src, context.node_ids) | np.isin(g.dst, context.node_ids)
    far = np.ones(g.num_edges, dtype=bool)
    far[int(np.flatnonzero(~touches)[-1])] = False

    def with_row(row):
        edited = g.copy()
        edited.x[row] += 1.0
        return edited

    return g, node, {"feature outside": with_row(outside_node),
                     "feature inside": with_row(node),
                     "far edge": g.with_edges(far)}


def test_context_key_is_local_to_the_receptive_field(mini_ba_shapes, node_model):
    g, node, edited = _edits(mini_ba_shapes, node_model)
    expl = RandomExplainer(node_model)
    first = expl.node_context(g, node)
    assert expl.node_context(edited["feature outside"], node) is first
    assert expl.node_context(edited["feature inside"], node) is not first
    assert expl.node_context(edited["far edge"], node) is not first


def test_explanation_memo_key_is_local_to_the_receptive_field(mini_ba_shapes, node_model):
    from repro.core import Revelio
    from repro.core.revelio import clear_explanation_cache

    g, node, edited = _edits(mini_ba_shapes, node_model)
    clear_explanation_cache()
    explainer = Revelio(node_model, epochs=3)
    base = explainer.explain_node(g, node)
    expected_hit = {"feature outside": True, "feature inside": False, "far edge": False}
    for name, graph in edited.items():
        # A fresh context every time, so only the memo can answer.
        clear_context_cache()
        before = PERF.explanation_cache_hits
        again = explainer.explain_node(graph, node)
        assert (PERF.explanation_cache_hits == before + 1) is expected_hit[name], name
        if expected_hit[name]:
            assert np.array_equal(again.edge_scores, base.edge_scores)
    clear_explanation_cache()


def test_revelio_extracts_one_context_per_explanation(mini_ba_shapes, node_model,
                                                      monkeypatch):
    from repro.core import Revelio
    from repro.explain.base import Explainer

    calls = []
    original = Explainer.node_context

    def counting(self, graph, node):
        calls.append(node)
        return original(self, graph, node)

    monkeypatch.setattr(Explainer, "node_context", counting)
    with context_cache_disabled():
        Revelio(node_model, epochs=2).explain_node(
            mini_ba_shapes.graph, int(mini_ba_shapes.motif_nodes[0]))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the one context type: what callers read, what a cached one keeps
# ----------------------------------------------------------------------
def test_the_context_carries_what_callers_read(mini_ba_shapes, node_model):
    """The attributes the benchmark's serve plan and ``examples/flow_queries.py``
    read from ``node_context(...)``."""
    from repro.flows import graph_fingerprint
    from repro.graph import Graph, SampledSubgraph

    g = mini_ba_shapes.graph
    node = int(mini_ba_shapes.motif_nodes[0])
    context = RandomExplainer(node_model).node_context(g, node)
    assert isinstance(context, SampledSubgraph)
    assert isinstance(context.subgraph, Graph)
    assert isinstance(context.local_target, int)
    assert context.local_targets == (context.local_target,)
    assert context.node_ids[context.local_target] == node
    assert context.edge_positions.size == context.subgraph.num_edges
    assert (g.edge_index[:, context.edge_positions]
            == context.node_ids[context.subgraph.edge_index]).all()
    assert isinstance(graph_fingerprint(context.subgraph), str)


@pytest.mark.parametrize("context_cache, memo", [(False, False), (False, True),
                                                 (True, False), (True, True)])
def test_a_request_hashes_at_most_once(context_cache, memo, mini_ba_shapes, node_model,
                                       monkeypatch):
    """The content key is hashed once per request when a cache is on, and
    not at all while both are off."""
    import contextlib

    from repro.core import Revelio
    from repro.core.revelio import explanation_cache_disabled
    from repro.explain import base

    calls = []
    for name in ("graph_fingerprint", "feature_digest"):
        real = getattr(base, name)
        monkeypatch.setattr(base, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    with contextlib.ExitStack() as stack:
        if not context_cache:
            stack.enter_context(context_cache_disabled())
        if not memo:
            stack.enter_context(explanation_cache_disabled())
        Revelio(node_model, epochs=2).explain_node(mini_ba_shapes.graph,
                                                   int(mini_ba_shapes.motif_nodes[0]))
    hashed = context_cache or memo
    assert sorted(calls) == (["feature_digest", "graph_fingerprint"] if hashed else [])


def _reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray reachable from ``root`` through object references."""
    import gc
    import types

    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
    return arrays


def test_a_cached_context_keeps_nothing_of_the_source_graph(node_model):
    """On Cora x1 a cached context holds no array sized by the source
    graph's N or E, and does not keep the source graph alive."""
    import gc
    import weakref

    from repro.datasets import cora
    from repro.nn import build_model
    from repro.sparse import sparse_cache

    graph = cora(scale=1.0, seed=0).graph
    num_nodes, num_edges = graph.num_nodes, graph.num_edges
    model = build_model("gcn", "node", graph.num_features, 7, rng=0)
    node = int(np.bincount(graph.dst, minlength=num_nodes).argmin())
    context = RandomExplainer(model).node_context(graph, node)
    assert len(CONTEXT_CACHE) == 1
    arrays = _reachable_arrays(context)
    for held in (context.node_ids, context.hops, context.subgraph.edge_index,
                 context.subgraph.x.indices, sparse_cache(context.subgraph).deg):
        assert any(array is held for array in arrays)
    for array in arrays:
        assert num_nodes not in array.shape and num_edges not in array.shape, array.shape
    source = weakref.ref(graph)
    del graph
    gc.collect()
    assert source() is None
    assert list(CONTEXT_CACHE._data.values()) == [context]
