"""Graph Isomorphism Network layer (Xu et al., 2019).

``h'_j = MLP((1 + eps) · h_j + Σ_{i∈N(j)} h_i)``. The ``(1+eps)·h_j`` self
term is treated as the self-loop layer edge so flow explanations (and layer
edge masks) cover it, matching how FlowX / GNN-LRP treat GIN.
"""

from __future__ import annotations

import numpy as np

from ..autograd import MLP, Parameter, SparseLeaf, Tensor, spmm
from ..rng import ensure_rng
from ..sparse import GraphSparseCache, feature_dense
from .message_passing import GraphConv

__all__ = ["GINConv"]


class GINConv(GraphConv):
    """One GIN layer with a 2-layer MLP and learnable epsilon.

    Parameters
    ----------
    in_features, out_features:
        Channel widths; the internal MLP is ``in → out → out``.
    train_eps:
        Whether ``eps`` is learnable (default True, as in the reference
        implementation).
    rng:
        Seed or generator for initialization.
    """

    dense_update = True

    def __init__(self, in_features: int, out_features: int, train_eps: bool = True,
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.mlp = MLP([in_features, out_features, out_features], rng=rng)
        if train_eps:
            self.eps = Parameter(np.zeros(1), name="eps")
        else:
            self.eps = None
            self._fixed_eps = 0.0

    def forward(self, x: Tensor, *args, **kwargs) -> Tensor:
        # GIN aggregates raw inputs before any weight, so CSR features
        # (a SparseLeaf) enter dense: the same values, the same bits.
        if isinstance(x, SparseLeaf):
            x = Tensor(feature_dense(x.matrix))
        return super().forward(x, *args, **kwargs)

    def message_parts(self, x: Tensor, cache: GraphSparseCache,
                      keep: np.ndarray | None = None) -> tuple[Tensor, Tensor | None]:
        # Scale the self-loop messages by (1 + eps). Aggregation is a plain
        # sum, so masking a message already equals removing its edge and a
        # structural ``keep`` changes nothing here.
        if self.eps is None:
            return x, None
        scale = Tensor(np.ones((cache.src.shape[0], 1)))
        return x, scale + Tensor(cache.self_loop) * self.eps

    def update(self, aggregated: Tensor) -> Tensor:
        return self.mlp(aggregated)

    def forward_unmasked(self, x: Tensor, cache: GraphSparseCache) -> Tensor:
        # The unit-weight aggregation (neighbors + self-loop) is one
        # cached-CSR spmm, and the (1 + eps) self scale decomposes into an
        # extra eps · x term — same math as scaling the self-loop
        # messages, but without materializing the (E+N, F) message tensor.
        aggregated = spmm(x, cache.adj, cache.adj_t)
        if self.eps is not None:
            aggregated = aggregated + x * self.eps
        return self.update(aggregated)

    def __repr__(self) -> str:
        return f"GINConv({self.in_features}, {self.out_features})"
