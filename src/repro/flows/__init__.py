"""Message-flow enumeration, incidence and pattern queries."""

from .cache import (
    FLOW_CACHE,
    cached_enumerate_flows,
    flow_cache_disabled,
    graph_fingerprint,
    invalidate,
)
from .enumeration import FlowIndex, count_flows, enumerate_flows
from .incidence import FlowIncidence
from .patterns import match_flows

__all__ = [
    "FlowIndex",
    "enumerate_flows",
    "count_flows",
    "cached_enumerate_flows",
    "FLOW_CACHE",
    "flow_cache_disabled",
    "graph_fingerprint",
    "invalidate",
    "FlowIncidence",
    "match_flows",
]
