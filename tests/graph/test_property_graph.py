"""Property-based invariants of graph operations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, coalesce_edges, extract_receptive_field, induced_subgraph


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if m:
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        keep = src != dst
        edge_index = coalesce_edges(np.stack([src[keep], dst[keep]]))
    else:
        edge_index = np.zeros((2, 0), dtype=np.int64)
    return Graph(edge_index=edge_index, x=rng.normal(size=(n, 3)))


@settings(max_examples=50, deadline=None)
@given(g=random_graphs(), seed=st.integers(0, 1000))
def test_with_edges_subset_of_original(g, seed):
    rng = np.random.default_rng(seed)
    keep = rng.random(g.num_edges) < 0.5
    sub = g.with_edges(keep)
    original = set(zip(g.src.tolist(), g.dst.tolist()))
    for u, v in zip(sub.src.tolist(), sub.dst.tolist()):
        assert (u, v) in original
    assert sub.num_edges == int(keep.sum())


@settings(max_examples=50, deadline=None)
@given(g=random_graphs(), hops=st.integers(0, 4), seed=st.integers(0, 1000))
def test_k_hop_contains_target_and_grows(g, hops, seed):
    rng = np.random.default_rng(seed)
    target = int(rng.integers(g.num_nodes))
    field = extract_receptive_field(g, [target], hops)
    nodes = field.node_ids
    assert target in nodes
    bigger = extract_receptive_field(g, [target], hops + 1).node_ids
    assert set(nodes.tolist()) <= set(bigger.tolist())
    # every kept edge has both endpoints in the neighborhood
    in_set = set(nodes.tolist())
    for e in field.edge_positions:
        assert int(g.src[e]) in in_set and int(g.dst[e]) in in_set


@settings(max_examples=50, deadline=None)
@given(g=random_graphs(), seed=st.integers(0, 1000))
def test_induced_subgraph_edge_consistency(g, seed):
    rng = np.random.default_rng(seed)
    chosen = np.unique(rng.integers(0, g.num_nodes, size=max(1, g.num_nodes // 2)))
    sub, node_ids, edge_mask = induced_subgraph(g, chosen)
    assert sub.num_nodes == node_ids.size
    # relabelled edges map back to original endpoints
    for i in range(sub.num_edges):
        u, v = int(node_ids[sub.src[i]]), int(node_ids[sub.dst[i]])
        assert g.has_edge(u, v)
    # edge count matches mask
    assert sub.num_edges == int(edge_mask.sum())


@settings(max_examples=50, deadline=None)
@given(g=random_graphs())
def test_degree_sums_equal_edge_count(g):
    assert g.in_degree().sum() == g.num_edges
    assert g.out_degree().sum() == g.num_edges


@settings(max_examples=30, deadline=None)
@given(g=random_graphs())
def test_coalesce_idempotent(g):
    once = coalesce_edges(g.edge_index)
    twice = coalesce_edges(once)
    assert np.array_equal(once, twice)
