"""Graph Convolutional Network layer (Kipf & Welling, 2017).

Implements the renormalized propagation rule ``H' = D̂^{-1/2} Â D̂^{-1/2} H W``
with ``Â = A + I`` expressed edge-wise so that per-layer-edge masks can be
multiplied into every message, including the self-loop contribution.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Parameter, Tensor, spmm
from ..autograd.init import glorot_uniform, zeros
from ..rng import ensure_rng
from ..sparse import GraphSparseCache, kernel
from .message_passing import GraphConv

__all__ = ["GCNConv"]


class GCNConv(GraphConv):
    """One GCN layer with symmetric renormalization and mask hooks.

    Parameters
    ----------
    in_features, out_features:
        Input / output channel widths.
    bias:
        Whether to add a learned bias after aggregation.
    normalize:
        Apply the symmetric D̂^{-1/2} Â D̂^{-1/2} renormalization (default).
        With ``False`` the layer sum-aggregates raw messages, the PyG
        ``GCNConv(normalize=False)`` variant; graph-classification targets
        use this so degree information survives pooling.
    rng:
        Seed or generator for Glorot initialization.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 normalize: bool = True,
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.normalize = normalize
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(zeros((out_features,)), name="bias") if bias else None

    def message_parts(self, x: Tensor, cache: GraphSparseCache,
                      keep: np.ndarray | None = None) -> tuple[Tensor, Tensor | None]:
        h = x @ self.weight
        if not self.normalize:
            return h, None
        if keep is None:
            # Symmetric normalization over the self-loop-augmented
            # structure (per-edge coefficient cached on the graph).
            return h, Tensor(cache.edge_norm[:, None])
        # Structural removal renormalizes over the kept degree, exactly as
        # Graph.with_edges would. Removed edges count against the cached
        # degree, which a receptive-field context preloads from the full
        # graph, so a boundary node keeps the in-edges the context cut off.
        removed = kernel("scatter_add")(cache.dst_plan, 1.0 - keep)   # (N, B)
        deg_inv_sqrt = 1.0 / np.sqrt(np.maximum(cache.deg[:, None] - removed, 1.0))
        return h, Tensor(deg_inv_sqrt[cache.src] * deg_inv_sqrt[cache.dst])

    def update(self, aggregated: Tensor) -> Tensor:
        return aggregated if self.bias is None else aggregated + self.bias

    def forward_unmasked(self, x: Tensor, cache: GraphSparseCache) -> Tensor:
        # The gather / normalize / scatter chain is one cached-CSR spmm,
        # its adjoint one more.
        adj, adj_t = (cache.adj_norm, cache.adj_norm_t) if self.normalize \
            else (cache.adj, cache.adj_t)
        return self.update(spmm(x @ self.weight, adj, adj_t))

    def __repr__(self) -> str:
        return f"GCNConv({self.in_features}, {self.out_features})"
