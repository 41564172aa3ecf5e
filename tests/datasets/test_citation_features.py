"""The citation surrogates' CSR features against the dense loops they replaced.

``_features`` replays the per-node ``rng.integers`` stream in one batch
(``_bounded_integers``) and builds CSR from the words it draws, at every
graph size. It must give the matrix the dense loop gave, byte for byte
through ``toarray()``, in the canonical CSR form ``sp.csr_matrix`` would
build from it, and leave the generator in the same state for the split
draws that follow. The dense loop lives on here as the oracle.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import citation, citation_surrogate, citeseer, cora, pubmed


def loop_features(rng, labels, num_nodes, num_features, words_per_class,
                  active_per_node, feature_signal):
    """The per-node loop writing a dense ``(N, F)`` matrix."""
    x = np.zeros((num_nodes, num_features))
    for v in range(num_nodes):
        c = labels[v]
        topic_lo = (c * words_per_class) % num_features
        n_topic = int(round(active_per_node * feature_signal))
        topic_words = topic_lo + rng.integers(words_per_class, size=n_topic)
        noise_words = rng.integers(num_features, size=active_per_node - n_topic)
        x[v, topic_words % num_features] = 1.0
        x[v, noise_words] = 1.0
    return x


def assert_canonical(x):
    """``x`` is exactly the CSR matrix ``sp.csr_matrix`` builds densely."""
    assert isinstance(x, sp.csr_matrix) and x.dtype == np.float64
    expected = sp.csr_matrix(x.toarray())
    for name in ("indptr", "indices", "data"):
        got, want = getattr(x, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.fixture
def checked(monkeypatch):
    """Run every feature generation against its oracle on a copied stream."""
    calls = []

    def wrap(real, oracle):
        def run(rng, *args):
            oracle_rng = copy.deepcopy(rng)
            expected = oracle(oracle_rng, *args)
            got = real(rng, *args)
            assert_canonical(got)
            assert got.toarray().tobytes() == expected.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            calls.append((real.__name__, expected))
            return got
        return run

    monkeypatch.setattr(citation, "_features", wrap(citation._features, loop_features))
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build,scale", [(cora, 0.3), (citeseer, 0.2), (pubmed, 0.1)])
def test_per_node_features_match_the_dense_loop(checked, build, scale, seed):
    graph = build(scale=scale, seed=seed).graph
    ((name, expected),) = checked
    assert name == "_features"
    assert sp.issparse(graph.x)
    assert_canonical(graph.x)
    assert graph.x.toarray().tobytes() == expected.tobytes()


def test_a_dense_enough_matrix_is_stored_dense(checked):
    """PubMed x0.03 has 30 features, about 13% nonzero: above the density
    ceiling, so the graph stores the oracle's dense array."""
    graph = pubmed(scale=0.03, seed=0).graph
    ((_, expected),) = checked
    assert type(graph.x) is np.ndarray
    assert np.count_nonzero(expected) / expected.size > 0.05
    assert graph.x.tobytes() == expected.tobytes()


def test_graphs_of_30000_nodes_take_the_one_stream(checked):
    """Graphs this large once drew from a batched stream of their own."""
    graph = citation_surrogate("big", 30_000, 60_000, 120, 4, seed=0).graph
    ((name, expected),) = checked
    assert name == "_features"
    assert_canonical(graph.x)
    assert graph.x.toarray().tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("highs", [
    [5, 5, 1433, 1433, 7] * 40,                 # the surrogates' ranges
    [2**31 + 1] * 60,                           # about half the words rejected
    [2**31 - 1, 3, 2**31 + 3, 2**32 - 1] * 20,  # rejections between small draws
    [2**32 - 1, 2],                             # the widest and narrowest range
])
def test_bounded_integers_replay_the_per_call_stream(highs, seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, dtype=np.uint32)  # leave half a 64-bit word buffered
    oracle_rng = copy.deepcopy(rng)
    expected = [int(oracle_rng.integers(h)) for h in highs]
    assert citation._bounded_integers(rng, np.array(highs)).tolist() == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_words_drawn_twice_are_one_entry():
    words = np.array([[3, 1, 3], [0, 0, 0], [2, 4, 1]])
    x = citation._word_csr(words, 5)
    assert_canonical(x)
    assert x.toarray().tolist() == [[0, 1, 0, 1, 0], [1, 0, 0, 0, 0], [0, 1, 1, 0, 1]]
