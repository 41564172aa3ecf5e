"""Cross-explainer per-instance flow cache.

Revelio, FlowX and GNN-LRP benchmarked on the same instance each enumerate
the identical flow set (and the fidelity harness re-extracts the identical
L-hop node context). Enumeration is pure in the graph structure, so this
module memoizes :func:`repro.flows.enumerate_flows` — and, via
:class:`LRUCache`, node contexts — keyed by a structural *fingerprint* of
the graph plus ``(num_layers, target)``. Entries are evicted LRU; mutating
a graph's edges changes its fingerprint, which is the implicit
invalidation path, and :func:`invalidate` / :meth:`FlowCache.clear` are the
explicit ones.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from ..errors import FlowError
from ..graph import Graph
from ..obs.counters import PERF
from .enumeration import DEFAULT_MAX_FLOWS, FlowIndex, enumerate_flows

__all__ = [
    "graph_fingerprint",
    "LRUCache",
    "FLOW_CACHE",
    "cached_enumerate_flows",
    "invalidate",
    "flow_cache_disabled",
]


def graph_fingerprint(graph: Graph) -> str:
    """Structural identity of a graph for flow purposes.

    Flows depend only on ``(num_nodes, edge_index)``; features and labels
    are irrelevant. Any edge edit (including :meth:`Graph.with_edges`)
    yields a different fingerprint, so stale entries can never be returned
    for a perturbed graph.
    """
    h = hashlib.sha1()
    h.update(str(graph.num_nodes).encode())
    h.update(np.ascontiguousarray(graph.edge_index).tobytes())
    return h.hexdigest()


class LRUCache:
    """A small insertion-ordered LRU map (no external deps)."""

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def pop_matching(self, predicate) -> int:
        """Drop entries whose key satisfies ``predicate``; return the count."""
        doomed = [k for k in self._data if predicate(k)]
        for k in doomed:
            del self._data[k]
        return len(doomed)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


class FlowCache:
    """Memoized flow enumeration keyed by ``(fingerprint, L, target)``."""

    def __init__(self, maxsize: int = 128):
        self._cache = LRUCache(maxsize)
        self.enabled = True

    def get_flow_index(self, graph: Graph, num_layers: int, target: int | None = None,
                       max_flows: int = DEFAULT_MAX_FLOWS) -> FlowIndex:
        """Return a (possibly cached) :class:`FlowIndex` for the instance.

        The cached object is shared between callers — it is treated as
        immutable by every consumer. ``max_flows`` semantics are preserved:
        a cached index larger than the caller's ceiling raises exactly as a
        fresh enumeration would.
        """
        if not self.enabled:
            return enumerate_flows(graph, num_layers, target=target, max_flows=max_flows)
        key = (graph_fingerprint(graph), num_layers, target)
        index = self._cache.get(key)
        if index is None:
            index = enumerate_flows(graph, num_layers, target=target, max_flows=max_flows)
            self._cache.put(key, index)
        else:
            PERF.flow_cache_hits += 1
            if index.num_flows > max_flows:
                raise FlowError(
                    f"flow enumeration exceeded max_flows={max_flows}; "
                    "reduce graph size or raise the limit"
                )
        return index

    def invalidate(self, graph: Graph | None = None) -> int:
        """Drop entries for ``graph`` (or everything with ``None``)."""
        if graph is None:
            n = len(self._cache)
            self._cache.clear()
            return n
        fp = graph_fingerprint(graph)
        return self._cache.pop_matching(lambda key: key[0] == fp)

    def clear(self) -> None:
        self._cache.clear()

    def cache_info(self) -> dict:
        return {
            "entries": len(self._cache),
            "maxsize": self._cache.maxsize,
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "enabled": self.enabled,
        }


#: Process-global cache shared by all explainers.
FLOW_CACHE = FlowCache()


def cached_enumerate_flows(graph: Graph, num_layers: int, target: int | None = None,
                           max_flows: int = DEFAULT_MAX_FLOWS) -> FlowIndex:
    """Drop-in cached variant of :func:`repro.flows.enumerate_flows`."""
    return FLOW_CACHE.get_flow_index(graph, num_layers, target=target,
                                     max_flows=max_flows)


def invalidate(graph: Graph | None = None) -> int:
    """Explicitly invalidate cached flow data (all entries with ``None``)."""
    return FLOW_CACHE.invalidate(graph)


@contextmanager
def flow_cache_disabled():
    """Temporarily bypass the cache (benchmark baselines, isolation tests)."""
    prev = FLOW_CACHE.enabled
    FLOW_CACHE.enabled = False
    try:
        yield
    finally:
        FLOW_CACHE.enabled = prev
