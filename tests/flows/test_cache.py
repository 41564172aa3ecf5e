"""Cross-explainer flow cache: bit-identity, invalidation, LRU policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flows.cache import FlowCache
from repro.flows import (
    FLOW_CACHE,
    cached_enumerate_flows,
    enumerate_flows,
    flow_cache_disabled,
    graph_fingerprint,
    invalidate,
)
from repro.graph import Graph
from repro.obs.counters import PERF


@pytest.fixture(autouse=True)
def _clean_cache():
    FLOW_CACHE.clear()
    yield
    FLOW_CACHE.clear()


@pytest.fixture
def diamond_graph():
    edge_index = np.array([[0, 0, 1, 2, 1, 3], [1, 2, 3, 3, 2, 0]])
    return Graph(edge_index=edge_index, x=np.eye(4))


def test_cached_index_is_bit_identical(diamond_graph):
    fresh = enumerate_flows(diamond_graph, 2, target=3)
    first = cached_enumerate_flows(diamond_graph, 2, target=3)
    second = cached_enumerate_flows(diamond_graph, 2, target=3)
    assert second is first  # one shared object, no re-enumeration
    np.testing.assert_array_equal(first.nodes, fresh.nodes)
    np.testing.assert_array_equal(first.layer_edges, fresh.layer_edges)
    assert first.num_edges == fresh.num_edges
    assert first.target == fresh.target


def test_cache_hit_counter_and_enumeration_counter(diamond_graph):
    before = PERF.snapshot()
    cached_enumerate_flows(diamond_graph, 2)
    cached_enumerate_flows(diamond_graph, 2)
    cached_enumerate_flows(diamond_graph, 2)
    after = PERF.snapshot()
    assert after["flow_enumerations"] - before["flow_enumerations"] == 1
    assert after["flow_cache_hits"] - before["flow_cache_hits"] == 2


def test_graph_change_invalidates_implicitly(diamond_graph):
    first = cached_enumerate_flows(diamond_graph, 2, target=3)
    keep = np.ones(diamond_graph.num_edges, dtype=bool)
    keep[0] = False
    pruned = diamond_graph.with_edges(keep)
    assert graph_fingerprint(pruned) != graph_fingerprint(diamond_graph)
    second = cached_enumerate_flows(pruned, 2, target=3)
    assert second is not first
    assert second.num_flows < first.num_flows
    fresh = enumerate_flows(pruned, 2, target=3)
    np.testing.assert_array_equal(second.layer_edges, fresh.layer_edges)


def test_distinct_targets_and_depths_get_distinct_entries(diamond_graph):
    a = cached_enumerate_flows(diamond_graph, 2, target=3)
    b = cached_enumerate_flows(diamond_graph, 2, target=0)
    c = cached_enumerate_flows(diamond_graph, 1, target=3)
    assert a is not b and a is not c
    assert cached_enumerate_flows(diamond_graph, 2, target=3) is a


def test_explicit_invalidation(diamond_graph):
    cached_enumerate_flows(diamond_graph, 1)
    cached_enumerate_flows(diamond_graph, 2)
    assert invalidate(diamond_graph) == 2
    assert FLOW_CACHE.cache_info()["entries"] == 0
    cached_enumerate_flows(diamond_graph, 1)
    assert invalidate() == 1  # None clears everything


def test_cached_entry_respects_caller_max_flows(diamond_graph):
    cached_enumerate_flows(diamond_graph, 2)
    n = cached_enumerate_flows(diamond_graph, 2).num_flows
    with pytest.raises(FlowError):
        cached_enumerate_flows(diamond_graph, 2, max_flows=n - 1)


def test_disabled_cache_bypasses(diamond_graph):
    with flow_cache_disabled():
        a = cached_enumerate_flows(diamond_graph, 2)
        b = cached_enumerate_flows(diamond_graph, 2)
    assert a is not b
    assert FLOW_CACHE.cache_info()["entries"] == 0


def test_lru_eviction():
    cache = FlowCache(maxsize=2)
    graphs = [
        Graph(edge_index=np.array([[0, 1], [1, 0]]), x=np.eye(3)),
        Graph(edge_index=np.array([[0, 2], [2, 0]]), x=np.eye(3)),
        Graph(edge_index=np.array([[1, 2], [2, 1]]), x=np.eye(3)),
    ]
    cache.get_flow_index(graphs[0], 1)
    cache.get_flow_index(graphs[1], 1)
    cache.get_flow_index(graphs[2], 1)  # evicts graphs[0]
    info = cache.cache_info()
    assert info["entries"] == 2
    before = PERF.flow_enumerations
    cache.get_flow_index(graphs[0], 1)  # re-enumerates
    assert PERF.flow_enumerations == before + 1
