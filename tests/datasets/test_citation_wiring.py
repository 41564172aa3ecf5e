"""The citation surrogates' one-pass wiring against the per-edge loop it replaced.

``_wire_edges`` must draw the stream of a loop that calls
``rng.choice(pool, p=probs)`` once per edge: the same pairs, and the
generator left in the same state for the feature and split draws that
follow. The loop lives on here as the oracle.
"""

import copy

import numpy as np
import pytest

from repro.datasets.citation import citation_surrogate
from repro.datasets.citation import _inverse_cdf, _scaled_profile, _wire_edges


def loop_wiring(rng, labels, propensity, class_pools, class_probs,
                num_nodes, num_undirected, homophily):
    """The per-edge wiring loop, one ``rng.choice`` per edge."""
    src_nodes = rng.choice(num_nodes, size=num_undirected, p=propensity)
    pairs = []
    same_class = rng.random(num_undirected) < homophily
    for u, same in zip(src_nodes.tolist(), same_class):
        c = labels[u]
        if same and class_pools[c].size > 1:
            v = int(rng.choice(class_pools[c], p=class_probs[c]))
        else:
            v = int(rng.choice(num_nodes, p=propensity))
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)


def wiring_inputs(labels, propensity):
    num_classes = int(labels.max()) + 1
    class_pools = [np.flatnonzero(labels == c) for c in range(num_classes)]
    class_probs = []
    for pool in class_pools:
        p = propensity[pool]
        class_probs.append(p / p.sum())
    return labels, propensity, class_pools, class_probs


def surrogate_inputs(rng, num_nodes, num_classes):
    """The draws ``citation_surrogate`` makes before wiring."""
    labels = rng.integers(num_classes, size=num_nodes)
    propensity = (1.0 - rng.random(num_nodes)) ** (-1.0 / 2.5)
    propensity /= propensity.sum()
    return wiring_inputs(labels, propensity)


def assert_same_stream(rng, inputs, num_undirected, homophily=0.88):
    num_nodes = inputs[0].shape[0]
    oracle_rng = copy.deepcopy(rng)
    expected = loop_wiring(oracle_rng, *inputs, num_nodes, num_undirected, homophily)
    got = _wire_edges(rng, *inputs, num_nodes, num_undirected, homophily)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, scale", [("cora", 0.3), ("citeseer", 0.2),
                                         ("pubmed", 0.03)])
def test_surrogate_wiring_matches_the_per_edge_loop(name, scale, seed):
    num_nodes, num_edges, _, num_classes = _scaled_profile(name, scale)
    rng = np.random.default_rng(seed)
    inputs = surrogate_inputs(rng, num_nodes, num_classes)
    pairs = assert_same_stream(rng, inputs, num_edges // 2)
    assert pairs.shape[0] > num_edges // 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tiny_class_pools_fall_back_to_the_global_draw(seed):
    # Class 0 holds one node (with half the propensity, so it is drawn as
    # a source often); class 1 holds none.
    labels = np.array([0] + [2, 3, 4] * 13)
    propensity = np.full(labels.shape[0], 0.5 / (labels.shape[0] - 1))
    propensity[0] = 0.5
    inputs = wiring_inputs(labels, propensity)
    assert [pool.size for pool in inputs[2][:2]] == [1, 0]
    rng = np.random.default_rng(seed)
    sources = copy.deepcopy(rng).choice(labels.shape[0], size=150, p=propensity)
    assert (sources == 0).sum() > 30
    assert_same_stream(rng, inputs, 150, homophily=0.95)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_edges(seed):
    rng = np.random.default_rng(seed)
    inputs = surrogate_inputs(rng, 40, 3)
    assert assert_same_stream(rng, inputs, 0).shape == (0, 2)


def test_a_surrogate_without_edges_builds():
    ds = citation_surrogate("empty", 30, 1, 16, 3, seed=0)
    assert ds.graph.edge_index.shape == (2, 0)


def upcoming_doubles(rng, count):
    return copy.deepcopy(rng).random(count)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_double_on_a_cdf_point_maps_like_choice(seed):
    """``choice`` searches right: a double equal to a CDF entry takes the
    next index. Random CDFs almost never meet a double exactly, so put
    the next double on a CDF point."""
    rng = np.random.default_rng(seed)
    oracle_rng = copy.deepcopy(rng)
    for u in upcoming_doubles(rng, 5):
        probs = np.array([u, 1.0 - u])
        assert probs.cumsum()[-1] == 1.0
        assert _inverse_cdf(probs, rng.random(1))[0] == oracle_rng.choice(2, p=probs) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probabilities_a_hair_off_one_are_renormalized_like_choice(seed):
    """``choice`` divides the cumulative sum by its last entry. Put the
    next double between a CDF point before and after that division."""
    rng = np.random.default_rng(seed)
    oracle_rng = copy.deepcopy(rng)
    for u in upcoming_doubles(rng, 5):
        total = 1.0 - 1e-9                     # inside choice's tolerance
        first = u * (1.0 - 0.5e-9)
        probs = np.array([first, total - first])
        assert first < u < first / probs.cumsum()[-1]
        assert _inverse_cdf(probs, rng.random(1))[0] == oracle_rng.choice(2, p=probs) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wiring_on_crafted_cdf_points_matches_the_loop(seed):
    """The two crafted CDFs above, through the whole wiring: one edge,
    every destination drawn from the global CDF (homophily 0)."""
    rng = np.random.default_rng(seed)
    u = upcoming_doubles(rng, 3)[2]            # source, same-class, destination
    on_point = np.array([u, 1.0 - u, 0.0])
    first = u * (1.0 - 0.5e-9)
    off_one = np.array([first, 1.0 - 1e-9 - first, 0.0])
    for propensity in (on_point, off_one):
        inputs = wiring_inputs(np.zeros(3, dtype=np.int64), propensity)
        assert_same_stream(copy.deepcopy(rng), inputs, 1, homophily=0.0)
