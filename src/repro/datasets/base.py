"""Dataset abstractions.

Two dataset kinds mirror the paper's Table III: node-classification
datasets (one big graph with split masks) and graph-classification datasets
(a list of small labelled graphs). Both expose uniform metadata used by the
experiment harness and a ``stats()`` summary that regenerates the Table III
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DatasetError
from ..graph import Graph
from ..rng import ensure_rng

__all__ = ["NodeDataset", "GraphDataset"]


@dataclass
class DatasetStats:
    """One row of Table III (dataset metadata block)."""

    name: str
    num_graphs: int
    num_nodes: float
    num_edges: float
    num_features: int
    num_classes: int
    synthetic: bool
    task: str

    def row(self) -> str:
        """Format as a Table III-style row."""
        return (
            f"{self.name:<12} {self.num_graphs:>8} {self.num_nodes:>9.1f} "
            f"{self.num_edges:>9.1f} {self.num_features:>10} {self.num_classes:>8}"
        )


@dataclass
class NodeDataset:
    """A node-classification dataset: one graph with split masks.

    Attributes
    ----------
    name:
        Registry name (``"cora"``, ``"ba_shapes"``, …).
    graph:
        The single large graph with ``train/val/test`` masks.
    synthetic:
        Whether the dataset has planted ground-truth motifs.
    motif_nodes:
        For synthetic datasets, the node ids that belong to motifs (these
        are the evaluation targets for Table IV / Fig. 6).
    """

    name: str
    graph: Graph
    synthetic: bool = False
    motif_nodes: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    task: str = "node"

    @property
    def num_features(self) -> int:
        return self.graph.num_features

    @property
    def num_classes(self) -> int:
        if not isinstance(self.graph.y, np.ndarray):
            raise DatasetError(f"{self.name}: node dataset lacks per-node labels")
        return int(self.graph.y.max()) + 1

    def stats(self) -> DatasetStats:
        """Table III row for this dataset."""
        return DatasetStats(
            name=self.name,
            num_graphs=1,
            num_nodes=float(self.graph.num_nodes),
            num_edges=float(self.graph.num_edges),
            num_features=self.num_features,
            num_classes=self.num_classes,
            synthetic=self.synthetic,
            task=self.task,
        )

    def sample_targets(self, n: int, rng: int | np.random.Generator | None = None,
                       motif_only: bool = False) -> np.ndarray:
        """Sample target node ids for explanation.

        The paper samples 50 instances per dataset "regardless of their
        ground-truth labels and predicted labels"; for AUC experiments it
        restricts to motif instances (``motif_only=True``).
        """
        rng = ensure_rng(rng)
        if motif_only:
            if self.motif_nodes is None or self.motif_nodes.size == 0:
                raise DatasetError(f"{self.name}: no motif nodes to sample")
            pool = self.motif_nodes
        else:
            pool = np.arange(self.graph.num_nodes)
        n = min(n, pool.size)
        return rng.choice(pool, size=n, replace=False)


@dataclass
class GraphDataset:
    """A graph-classification dataset: many small labelled graphs."""

    name: str
    graphs: list[Graph]
    synthetic: bool = False
    meta: dict = field(default_factory=dict)

    task: str = "graph"

    def __post_init__(self) -> None:
        if not self.graphs:
            raise DatasetError(f"{self.name}: empty graph list")

    @property
    def num_features(self) -> int:
        return self.graphs[0].num_features

    @property
    def num_classes(self) -> int:
        labels = [int(g.y) for g in self.graphs if g.y is not None]
        if not labels:
            raise DatasetError(f"{self.name}: graphs lack labels")
        return max(labels) + 1

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, i: int) -> Graph:
        return self.graphs[i]

    def stats(self) -> DatasetStats:
        """Table III row (node/edge counts are per-graph averages)."""
        return DatasetStats(
            name=self.name,
            num_graphs=len(self.graphs),
            num_nodes=float(np.mean([g.num_nodes for g in self.graphs])),
            num_edges=float(np.mean([g.num_edges for g in self.graphs])),
            num_features=self.num_features,
            num_classes=self.num_classes,
            synthetic=self.synthetic,
            task=self.task,
        )

    def sample_targets(self, n: int, rng: int | np.random.Generator | None = None,
                       motif_only: bool = False) -> np.ndarray:
        """Sample graph indices for explanation."""
        rng = ensure_rng(rng)
        if motif_only:
            pool = np.array([i for i, g in enumerate(self.graphs) if g.motif_edges])
            if pool.size == 0:
                raise DatasetError(f"{self.name}: no graphs with motif ground truth")
        else:
            pool = np.arange(len(self.graphs))
        n = min(n, pool.size)
        return rng.choice(pool, size=n, replace=False)


def make_split_masks(num_nodes: int, rng: np.random.Generator,
                     train_frac: float = 0.8, val_frac: float = 0.1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random train/val/test boolean masks over ``num_nodes``."""
    u = rng.random(num_nodes)
    train = u < train_frac
    val = (u >= train_frac) & (u < train_frac + val_frac)
    test = u >= train_frac + val_frac
    return train, val, test
