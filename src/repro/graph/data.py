"""Graph container used across the library.

A :class:`Graph` stores a directed graph in COO format (``edge_index`` of
shape ``(2, E)``), node features, labels and optional train/val/test masks —
the same layout as PyTorch Geometric's ``Data`` object, which the paper's
implementation builds on.

Edges are directed and, following the paper's experimental setup, contain no
self-loops at the data level (GNN layers add their own self-contributions;
see :mod:`repro.nn.message_passing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from ..sparse.cache import FEATURE_DENSITY_CEILING

__all__ = ["Graph"]


def _stored_features(x) -> np.ndarray | sp.csr_matrix:
    """``x`` as a :class:`Graph` stores it.

    A dense ``x`` becomes a float64 array. A sparse one becomes a float64
    CSR matrix in canonical form — sorted indices, no duplicates, no
    explicit zeros: exactly ``sp.csr_matrix(x.toarray())`` — or a dense
    array when it is denser than
    :data:`~repro.sparse.cache.FEATURE_DENSITY_CEILING`, the rule
    :func:`~repro.sparse.feature_csr` applies to a dense array, so a
    graph's first-layer kernel does not depend on how its features
    arrived. A matrix already in that form is kept as is (identity-keyed
    memos then follow it); the caller's matrix is never modified.
    """
    if not sp.issparse(x):
        return np.asarray(x, dtype=np.float64)
    if not isinstance(x, sp.csr_matrix) or x.dtype != np.float64:
        x = sp.csr_matrix(x, dtype=np.float64)
    if not x.has_canonical_format or not x.data.all():
        x = x.copy()
        x.sum_duplicates()
        x.eliminate_zeros()
    if x.nnz / max(x.shape[0] * x.shape[1], 1) > FEATURE_DENSITY_CEILING:
        return x.toarray()
    return x


@dataclass
class Graph:
    """A directed attributed graph.

    Parameters
    ----------
    edge_index:
        ``(2, E)`` int array; row 0 holds source nodes, row 1 destinations.
    x:
        ``(N, F)`` float node features: a dense array, or a scipy sparse
        matrix, stored as canonical CSR (see :func:`_stored_features`;
        sparse bag-of-words features never take ``N·F`` dense bytes).
        Read dense values through :func:`repro.sparse.feature_dense`.
    y:
        Labels — ``(N,)`` ints for node classification, scalar int for graph
        classification, or ``None``.
    num_nodes:
        Node count; inferred from ``x`` when omitted.
    train_mask / val_mask / test_mask:
        Optional ``(N,)`` boolean split masks (node classification).
    motif_edges:
        Optional set of ``(src, dst)`` pairs that form the ground-truth
        explanation motif (synthetic datasets only); used for AUC evaluation
        (Table IV).
    meta:
        Free-form metadata (dataset name, generator parameters, …).
    """

    edge_index: np.ndarray
    x: np.ndarray | sp.csr_matrix
    y: np.ndarray | int | None = None
    num_nodes: int | None = None
    train_mask: np.ndarray | None = None
    val_mask: np.ndarray | None = None
    test_mask: np.ndarray | None = None
    motif_edges: frozenset[tuple[int, int]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise GraphError(f"edge_index must have shape (2, E), got {self.edge_index.shape}")
        self.x = _stored_features(self.x)
        if self.x.ndim != 2:
            raise GraphError(f"x must have shape (N, F), got {self.x.shape}")
        if self.num_nodes is None:
            self.num_nodes = self.x.shape[0]
        if self.x.shape[0] != self.num_nodes:
            raise GraphError(
                f"x has {self.x.shape[0]} rows but num_nodes={self.num_nodes}"
            )
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise GraphError(
                f"edge_index references node {int(self.edge_index.max())} "
                f"but graph has {self.num_nodes} nodes"
            )
        if self.edge_index.size and self.edge_index.min() < 0:
            raise GraphError("edge_index contains negative node ids")
        if isinstance(self.y, np.ndarray):
            self.y = np.asarray(self.y, dtype=np.int64)
        for name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.num_nodes,):
                    raise GraphError(f"{name} must have shape ({self.num_nodes},), got {mask.shape}")
                setattr(self, name, mask)
        if self.motif_edges is not None and not isinstance(self.motif_edges, frozenset):
            self.motif_edges = frozenset((int(u), int(v)) for u, v in self.motif_edges)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        """Node-feature dimensionality."""
        return self.x.shape[1]

    @property
    def src(self) -> np.ndarray:
        """Source node of each edge, shape ``(E,)``."""
        return self.edge_index[0]

    @property
    def dst(self) -> np.ndarray:
        """Destination node of each edge, shape ``(E,)``."""
        return self.edge_index[1]

    def __repr__(self) -> str:
        label = "" if self.y is None else f", y={'array' if isinstance(self.y, np.ndarray) else self.y}"
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"num_features={self.num_features}{label})"
        )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def edge_id_map(self) -> dict[tuple[int, int], int]:
        """Return ``(src, dst) -> edge position`` (first occurrence wins)."""
        mapping: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            mapping.setdefault((u, v), i)
        return mapping

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        return bool(np.any((self.src == u) & (self.dst == v)))

    def in_degree(self) -> np.ndarray:
        """Incoming degree per node, shape ``(N,)``."""
        return np.bincount(self.dst, minlength=self.num_nodes)

    def out_degree(self) -> np.ndarray:
        """Outgoing degree per node, shape ``(N,)``."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def with_edges(self, keep: np.ndarray) -> "Graph":
        """Return a copy keeping only edges where ``keep`` is True.

        Node set, features and labels are unchanged — exactly the operation
        fidelity metrics use to build explanatory / unexplanatory subgraphs.
        """
        keep = np.asarray(keep)
        if keep.dtype != bool:
            mask = np.zeros(self.num_edges, dtype=bool)
            mask[keep] = True
            keep = mask
        if keep.shape != (self.num_edges,):
            raise GraphError(f"edge keep mask must have shape ({self.num_edges},), got {keep.shape}")
        return Graph(
            edge_index=self.edge_index[:, keep],
            x=self.x,
            y=self.y,
            num_nodes=self.num_nodes,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            motif_edges=self.motif_edges,
            meta=dict(self.meta),
        )

    def copy(self) -> "Graph":
        """Deep copy of all array payloads."""
        return Graph(
            edge_index=self.edge_index.copy(),
            x=self.x.copy(),
            y=self.y.copy() if isinstance(self.y, np.ndarray) else self.y,
            num_nodes=self.num_nodes,
            train_mask=None if self.train_mask is None else self.train_mask.copy(),
            val_mask=None if self.val_mask is None else self.val_mask.copy(),
            test_mask=None if self.test_mask is None else self.test_mask.copy(),
            motif_edges=self.motif_edges,
            meta=dict(self.meta),
        )

    def validate(self) -> None:
        """Re-run the construction-time invariant checks."""
        self.__post_init__()
