"""Citation-network surrogates for Cora / Citeseer / PubMed.

The paper evaluates on the Planetoid citation benchmarks, which require
downloaded data. This offline reproduction substitutes seeded generative
surrogates that match Table III's node / edge / feature / class counts and
— more importantly — the *regime* the experiments exercise: a homophilous
graph where a 3-layer GNN reaches high accuracy by combining structure and
sparse bag-of-words features (see DESIGN.md §2).

Construction: a degree-corrected stochastic block model (power-law degree
propensities, strong within-class preference) plus class-topic binary
features (each class owns a subset of "words"; a node samples most of its
words from its class topics and some noise words). Planetoid-style splits:
20 labelled nodes per class for training, 500 validation, 1000 test
(scaled).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph import Graph, coalesce_edges
from ..rng import ensure_rng
from .base import NodeDataset

__all__ = ["cora", "citeseer", "pubmed", "citation_surrogate"]

# Table III targets: (nodes, edges, features, classes)
_PROFILES = {
    "cora": (2708, 10556, 1433, 7),
    "citeseer": (3327, 9104, 3703, 6),
    "pubmed": (19717, 88648, 500, 3),
}

def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The indices ``Generator.choice(len(probs), p=probs)`` maps doubles ``u`` to.

    One ``choice`` call draws one ``random()`` double and looks it up in
    ``probs.cumsum()`` renormalized by its last entry, with
    ``side="right"``; this repeats that map over many doubles at once.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array, by sort and a neighbour mask
    (numpy's hash-based ``unique`` is far slower on large code arrays)."""
    codes = np.sort(codes)
    return codes[np.concatenate([codes[:1] == codes[:1], codes[1:] != codes[:-1]])]


def _unique_pairs(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted unique ``(min, max)`` rows of the non-self-loop pairs, ``(K, 2)``."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    code = _sorted_unique(lo[keep].astype(np.int64) * num_nodes + hi[keep])
    return np.stack([code // num_nodes, code % num_nodes], axis=1)


def _wire_edges(rng, labels, propensity, class_pools, class_probs,
                num_nodes, num_undirected, homophily):
    """Degree-corrected homophilous wiring, one pass over all edges.

    Draws exactly the stream of a per-edge loop that calls
    ``rng.choice(pool, p=probs)`` once per edge (the class pool when the
    edge is homophilous and the pool has two or more nodes, else all
    nodes by propensity): each such call consumes one double, so one
    ``rng.random`` array holds every edge's double and
    :func:`_inverse_cdf` maps it through its pool's CDF. Same pairs,
    same generator state afterwards, without re-normalizing an ``O(N)``
    pool per edge.
    """
    src = rng.choice(num_nodes, size=num_undirected, p=propensity)
    same = rng.random(num_undirected) < homophily
    u = rng.random(num_undirected)
    dst = _inverse_cdf(propensity, u)
    src_labels = labels[src]
    for c, pool in enumerate(class_pools):
        if pool.size > 1:
            sel = same & (src_labels == c)
            dst[sel] = pool[_inverse_cdf(class_probs[c], u[sel])]
    return _unique_pairs(src, dst, num_nodes)


def _word_csr(words: np.ndarray, num_features: int) -> sp.csr_matrix:
    """Binary ``(N, F)`` CSR matrix with a 1 at every ``(v, words[v, k])``.

    One vectorized pass: each ``(row, word)`` pair is coded ``row·F +
    word``, and :func:`_sorted_unique` sorts the codes and drops repeated
    words, so the result is canonical — the bytes ``sp.csr_matrix`` would
    give the dense matrix — without ever holding ``N·F`` floats.
    """
    num_nodes = words.shape[0]
    code = _sorted_unique(
        (np.arange(num_nodes, dtype=np.int64)[:, None] * num_features + words).ravel())
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(code // num_features, minlength=num_nodes), out=indptr[1:])
    return sp.csr_matrix((np.ones(code.size), code % num_features, indptr),
                         shape=(num_nodes, num_features))


def _bounded_integers(rng, highs: np.ndarray) -> np.ndarray:
    """``[rng.integers(h) for h in highs]`` in one batch, on the same stream.

    For a range below ``2**32`` numpy draws one 32-bit word ``u`` per value
    and maps it by Lemire's step: ``m = u·h``, rejected while ``m mod 2**32
    < (2**32 − h) mod h``, and the value is ``m >> 32``. Every slot gets a
    word from one ``uint32`` draw; each rejection shifts the later slots
    onto the next word and draws one more at the end, so the values and
    the generator's state match the per-call draws exactly. Each ``h``
    must lie in ``[2, 2**32)`` (a range of one draws no word).
    """
    highs = np.asarray(highs, dtype=np.uint64)
    thresholds = (np.uint64(2**32) - highs) % highs
    out = np.empty(highs.size, dtype=np.int64)
    words = rng.integers(0, 2**32, size=highs.size, dtype=np.uint32).astype(np.uint64)
    start = 0
    while True:
        m = words * highs[start:]
        rejected = np.flatnonzero((m & np.uint64(2**32 - 1)) < thresholds[start:])
        stop = int(rejected[0]) if rejected.size else m.size
        out[start:start + stop] = m[:stop] >> np.uint64(32)
        if not rejected.size:
            return out
        start += stop
        extra = rng.integers(0, 2**32, size=1, dtype=np.uint32).astype(np.uint64)
        words = np.concatenate([words[stop + 1:], extra])


def _features(rng, labels, num_nodes, num_features, words_per_class,
              active_per_node, feature_signal) -> sp.csr_matrix:
    """Class-topic bag-of-words features.

    The historical stream draws, node by node, ``n_topic`` topic words
    (``rng.integers(words_per_class)``) then the noise words
    (``rng.integers(num_features)``); :func:`_bounded_integers` replays
    that stream in one batch, and :func:`_word_csr` builds the matrix.
    """
    n_topic = int(round(active_per_node * feature_signal))
    highs = np.tile(np.repeat([words_per_class, num_features],
                              [n_topic, active_per_node - n_topic]), num_nodes)
    words = _bounded_integers(rng, highs).reshape(num_nodes, active_per_node)
    topic_lo = (labels.astype(np.int64) * words_per_class) % num_features
    words[:, :n_topic] = (topic_lo[:, None] + words[:, :n_topic]) % num_features
    return _word_csr(words, num_features)


def citation_surrogate(name: str, num_nodes: int, num_edges: int, num_features: int,
                       num_classes: int, seed: int | np.random.Generator | None = 0,
                       homophily: float = 0.88, feature_signal: float = 0.75) -> NodeDataset:
    """Generate a citation-style node-classification graph.

    Parameters
    ----------
    name:
        Dataset name stored in metadata.
    num_nodes, num_edges, num_features, num_classes:
        Target sizes (edges are directed; generation matches the count
        approximately, then reports the true number).
    homophily:
        Probability that an edge endpoint pair shares a class.
    feature_signal:
        Fraction of a node's active words drawn from its class topic.
    """
    rng = ensure_rng(seed)
    labels = rng.integers(num_classes, size=num_nodes)

    # Degree-corrected attachment: power-law propensities.
    propensity = (1.0 - rng.random(num_nodes)) ** (-1.0 / 2.5)
    propensity /= propensity.sum()

    # Per-class node pools for homophilous wiring.
    class_pools = [np.flatnonzero(labels == c) for c in range(num_classes)]
    class_probs = []
    for c in range(num_classes):
        p = propensity[class_pools[c]]
        class_probs.append(p / p.sum())

    # Wiring: one pass on the historical per-edge stream.
    num_undirected = num_edges // 2
    pairs_arr = _wire_edges(rng, labels, propensity, class_pools, class_probs,
                            num_nodes, num_undirected, homophily)
    edge_index = coalesce_edges(
        np.concatenate([pairs_arr.T, pairs_arr.T[::-1]], axis=1)
    )

    # Sparse class-topic bag-of-words features, built as CSR.
    words_per_class = max(4, num_features // num_classes)
    active_per_node = max(4, num_features // 60)
    x = _features(rng, labels, num_nodes, num_features, words_per_class,
                  active_per_node, feature_signal)

    # Planetoid-style split, scaled to the graph size.
    train_mask = np.zeros(num_nodes, dtype=bool)
    per_class = max(5, min(20, num_nodes // (num_classes * 10)))
    for c in range(num_classes):
        pool = class_pools[c]
        take = min(per_class, pool.size)
        train_mask[rng.choice(pool, size=take, replace=False)] = True
    remaining = np.flatnonzero(~train_mask)
    rng.shuffle(remaining)
    n_val = min(500, remaining.size // 2)
    n_test = min(1000, remaining.size - n_val)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    val_mask[remaining[:n_val]] = True
    test_mask[remaining[n_val:n_val + n_test]] = True

    graph = Graph(edge_index=edge_index, x=x, y=labels, train_mask=train_mask,
                  val_mask=val_mask, test_mask=test_mask,
                  meta={"dataset": name, "surrogate": True})
    return NodeDataset(name=name, graph=graph, synthetic=False,
                       meta={"profile": (num_nodes, num_edges, num_features, num_classes)})


def _scaled_profile(name: str, scale: float) -> tuple[int, int, int, int]:
    nodes, edges, feats, classes = _PROFILES[name]
    s = max(scale, 0.01)
    return (
        max(classes * 30, int(round(nodes * s))),
        max(classes * 90, int(round(edges * s))),
        max(16, int(round(feats * min(1.0, s * 2)))),
        classes,
    )


def cora(scale: float = 1.0, seed: int | np.random.Generator | None = 0) -> NodeDataset:
    """Cora surrogate (2708 nodes / 10556 edges / 1433 features / 7 classes at scale 1)."""
    return citation_surrogate("cora", *_scaled_profile("cora", scale), seed=seed)


def citeseer(scale: float = 1.0, seed: int | np.random.Generator | None = 0) -> NodeDataset:
    """Citeseer surrogate (3327 / 9104 / 3703 / 6 at scale 1)."""
    return citation_surrogate("citeseer", *_scaled_profile("citeseer", scale), seed=seed)


def pubmed(scale: float = 1.0, seed: int | np.random.Generator | None = 0) -> NodeDataset:
    """PubMed surrogate (19717 / 88648 / 500 / 3 at scale 1)."""
    return citation_surrogate("pubmed", *_scaled_profile("pubmed", scale), seed=seed)
