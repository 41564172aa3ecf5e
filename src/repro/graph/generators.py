"""Low-level random-graph generators.

These produce raw edge lists used by the dataset builders in
:mod:`repro.datasets`: Barabási–Albert preferential attachment, balanced
trees, Erdős–Rényi graphs and degree-corrected stochastic block models.
All take explicit RNGs and return directed edge pairs (both directions for
an undirected construction), matching the paper's "directed edges, no
self-loops" data convention.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError
from ..rng import ensure_rng

__all__ = [
    "barabasi_albert_edges",
    "balanced_tree_edges",
    "erdos_renyi_edges",
    "sbm_edges",
    "cycle_edges",
    "house_motif_edges",
]


def _directed_both(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Expand undirected pairs into both directed edges, deduplicated."""
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            continue
        seen.add((u, v))
        seen.add((v, u))
    if not seen:
        return np.zeros((2, 0), dtype=np.int64)
    arr = np.array(sorted(seen), dtype=np.int64).T
    return arr


def barabasi_albert_edges(num_nodes: int, m: int,
                          rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Barabási–Albert preferential attachment; returns ``(2, E)`` directed.

    Each new node attaches to ``m`` existing nodes with probability
    proportional to degree (repeated-nodes urn trick).
    """
    rng = ensure_rng(rng)
    if num_nodes < m + 1:
        raise DatasetError(f"BA graph needs > m+1 nodes (m={m}, n={num_nodes})")
    pairs: list[tuple[int, int]] = []
    # Seed with a star on the first m+1 nodes so every node has degree >= 1.
    repeated: list[int] = []
    for new in range(m, num_nodes):
        chosen = set()
        while len(chosen) < m:
            if repeated and rng.random() < 0.9:
                candidate = int(repeated[rng.integers(len(repeated))])
            else:
                candidate = int(rng.integers(new))
            if candidate != new:
                chosen.add(candidate)
        for t in chosen:
            pairs.append((new, t))
            repeated.extend([new, t])
    return _directed_both(pairs)


def balanced_tree_edges(branching: int, height: int) -> tuple[np.ndarray, int]:
    """Balanced tree; returns ``(edge_index, num_nodes)``."""
    pairs = []
    nodes = [0]
    next_id = 1
    frontier = [0]
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = next_id
                next_id += 1
                nodes.append(child)
                pairs.append((parent, child))
                new_frontier.append(child)
        frontier = new_frontier
    return _directed_both(pairs), next_id


def erdos_renyi_edges(num_nodes: int, p: float,
                      rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Erdős–Rényi G(n, p); undirected pairs expanded to both directions."""
    rng = ensure_rng(rng)
    upper = rng.random((num_nodes, num_nodes)) < p
    iu = np.triu_indices(num_nodes, k=1)
    mask = upper[iu]
    pairs = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    return _directed_both(pairs)


def sbm_edges(block_sizes: list[int], p_in: float, p_out: float,
              rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Stochastic block model with within/between connection probabilities."""
    rng = ensure_rng(rng)
    labels = np.concatenate([np.full(s, b) for b, s in enumerate(block_sizes)])
    n = labels.size
    iu = np.triu_indices(n, k=1)
    same = labels[iu[0]] == labels[iu[1]]
    prob = np.where(same, p_in, p_out)
    mask = rng.random(prob.shape) < prob
    pairs = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    return _directed_both(pairs)


def cycle_edges(node_ids: list[int]) -> np.ndarray:
    """Directed-both cycle through ``node_ids`` in order."""
    n = len(node_ids)
    if n < 3:
        raise DatasetError("cycle needs at least 3 nodes")
    pairs = [(node_ids[i], node_ids[(i + 1) % n]) for i in range(n)]
    return _directed_both(pairs)


def house_motif_edges(node_ids: list[int]) -> np.ndarray:
    """The five-node "house" motif used by BA-Shapes / BA-2motifs.

    ``node_ids`` order: [roof, left-shoulder, right-shoulder, left-base,
    right-base]. Structure: roof connects to both shoulders; shoulders
    connect to each other and to their base; bases connect to each other.
    """
    if len(node_ids) != 5:
        raise DatasetError("house motif needs exactly 5 nodes")
    roof, ls, rs, lb, rb = node_ids
    pairs = [(roof, ls), (roof, rs), (ls, rs), (ls, lb), (rs, rb), (lb, rb)]
    return _directed_both(pairs)
