"""Molecule-like graph-classification surrogates for MUTAG and BBBP.

MUTAG (mutagenicity of nitroaromatic compounds) and BBBP (blood-brain
barrier penetration) require downloaded chemistry data. The offline
surrogates generate small "molecules" — random connected skeletons with
typed atoms — where the label is determined by a planted functional-group
motif, mirroring how the real GNN targets latch onto substructures like
NO2 groups (the canonical MUTAG explanation):

* ``mutag``: 188 graphs, 7 atom types, avg ~18 nodes. Class 1 molecules
  contain at least one nitro-like group (an N atom bonded to two O atoms,
  attached to a carbon ring); class 0 molecules contain none.
* ``bbbp``: 2039 graphs, 9 atom types, avg ~24 nodes. Class 1 molecules
  contain a lipophilic ring pattern (6-ring of C with a halogen
  substituent); class 0 carry polar chains instead.

``motif_edges`` records the planted group so explanation quality can be
inspected qualitatively (the paper only computes AUC on the BA/Tree
synthetics; these remain available for visualization).
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph, coalesce_edges
from ..rng import ensure_rng
from .base import GraphDataset

__all__ = ["mutag", "bbbp"]


def _random_skeleton(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random connected skeleton: a random tree plus a few chords."""
    pairs = []
    for v in range(1, n):
        u = int(rng.integers(v))
        pairs.append((u, v))
    n_chords = int(rng.integers(0, max(1, n // 5) + 1))
    for _ in range(n_chords):
        u, v = rng.integers(n, size=2)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return pairs


def _both_directions(pairs: list[tuple[int, int]]) -> np.ndarray:
    uniq = sorted({(u, v) for u, v in pairs if u != v})
    arr = np.array(uniq, dtype=np.int64).T
    return coalesce_edges(np.concatenate([arr, arr[::-1]], axis=1))


def _one_hot(types: np.ndarray, num_types: int) -> np.ndarray:
    x = np.zeros((types.size, num_types))
    x[np.arange(types.size), types] = 1.0
    return x


def molecule_surrogate(name: str, num_graphs: int, avg_nodes: int, num_types: int,
                       seed: int | np.random.Generator | None = 0,
                       motif: str = "nitro") -> GraphDataset:
    """Generate a motif-labelled molecule-like dataset.

    Parameters
    ----------
    name:
        Dataset name.
    num_graphs, avg_nodes, num_types:
        Dataset size, average molecule size, number of atom types
        (feature dimension).
    motif:
        ``"nitro"`` (N + 2×O group) or ``"ring"`` (C6 ring + halogen).
    """
    rng = ensure_rng(seed)
    graphs: list[Graph] = []
    # Atom type conventions: 0=C, 1=N, 2=O, 3=halogen, rest = misc.
    for i in range(num_graphs):
        label = i % 2
        n_base = max(6, int(rng.normal(avg_nodes - 4, 3)))
        pairs = _random_skeleton(n_base, rng)
        types = np.zeros(n_base, dtype=np.int64)
        # Mostly carbon with sprinkles of other atoms — but never a full
        # planted group in class-0 molecules.
        misc = rng.random(n_base)
        types[misc > 0.8] = rng.integers(3, num_types, size=int((misc > 0.8).sum()))

        motif_pairs: list[tuple[int, int]] = []
        if label == 1:
            anchor = int(rng.integers(n_base))
            if motif == "nitro":
                # N bonded to two O, attached to the anchor carbon.
                n_id, o1, o2 = n_base, n_base + 1, n_base + 2
                types = np.concatenate([types, [1, 2, 2]])
                motif_pairs = [(anchor, n_id), (n_id, o1), (n_id, o2)]
            else:
                # 6-carbon ring with a halogen substituent.
                ring = list(range(n_base, n_base + 6))
                hal = n_base + 6
                types = np.concatenate([types, [0] * 6, [3]])
                motif_pairs = [(ring[k], ring[(k + 1) % 6]) for k in range(6)]
                motif_pairs += [(anchor, ring[0]), (ring[3], hal)]
        pairs += motif_pairs

        edge_index = _both_directions(pairs)
        motif_set = None
        if motif_pairs:
            motif_set = frozenset(
                pair for u, v in motif_pairs for pair in ((u, v), (v, u))
            )
        graphs.append(Graph(
            edge_index=edge_index,
            x=_one_hot(types, num_types),
            y=int(label),
            motif_edges=motif_set,
            meta={"dataset": name, "index": i},
        ))
    return GraphDataset(name=name, graphs=graphs, synthetic=False,
                        meta={"motif": motif, "surrogate": True})


def mutag(scale: float = 1.0, seed: int | np.random.Generator | None = 0) -> GraphDataset:
    """MUTAG surrogate (188 graphs / 7 features / 2 classes at scale 1)."""
    num_graphs = max(20, int(round(188 * scale)))
    return molecule_surrogate("mutag", num_graphs, avg_nodes=18, num_types=7,
                              seed=seed, motif="nitro")


def bbbp(scale: float = 1.0, seed: int | np.random.Generator | None = 0) -> GraphDataset:
    """BBBP surrogate (2039 graphs / 9 features / 2 classes at scale 1)."""
    num_graphs = max(20, int(round(2039 * scale)))
    return molecule_surrogate("bbbp", num_graphs, avg_nodes=24, num_types=9,
                              seed=seed, motif="ring")
