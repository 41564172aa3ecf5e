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
from ..sparse import GraphSparseCache, edge_cache
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

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int,
                edge_mask: Tensor | None = None,
                cache: GraphSparseCache | None = None) -> Tensor:
        if cache is None:
            cache = edge_cache(edge_index, num_nodes)
        src, dst = cache.src, cache.dst
        edge_mask = self._check_mask(edge_mask, edge_index.shape[1], num_nodes)

        h = x @ self.weight
        if edge_mask is None:
            # Unmasked (training) fast path: the gather / normalize /
            # scatter chain is one cached-CSR spmm, its adjoint one more.
            if self.normalize:
                out = spmm(h, cache.adj_norm, cache.adj_norm_t)
            else:
                out = spmm(h, cache.adj, cache.adj_t)
        else:
            messages = h.gather_rows(src, plan=cache.src_plan)
            if self.normalize:
                # Symmetric normalization over the self-loop-augmented
                # structure (per-edge coefficient cached on the graph).
                messages = messages * Tensor(cache.edge_norm[:, None])
            messages = messages * edge_mask
            out = messages.scatter_add(dst, num_nodes, plan=cache.dst_plan)
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_np_batch(self, x: np.ndarray, edge_index: np.ndarray, num_nodes: int,
                         edge_mask: np.ndarray | None = None,
                         structural: bool = False,
                         cache: GraphSparseCache | None = None) -> np.ndarray:
        from .batched import gather_scatter_edge_major, scatter_edge_major

        if cache is None:
            cache = GraphSparseCache(edge_index, num_nodes)
        src, dst, plan = cache.src, cache.dst, cache.dst_plan
        B = x.shape[1]
        edge_mask = self._check_mask_np(edge_mask, B, edge_index.shape[1], num_nodes)

        shared_x = x.strides[1] == 0
        if shared_x:
            h = x[:, 0, :] @ self.weight.data                    # (N, out)
        else:
            h = (x.reshape(-1, x.shape[-1]) @ self.weight.data)  # one GEMM
            h = h.reshape(num_nodes, B, -1)                      # (N, B, out)

        # Fuse normalization and mask into one (A, B) coefficient; the
        # gather_scatter kernel folds it into the sparse matmul so the
        # (A, B, out) message tensor is never materialized.
        coeff = None
        if self.normalize:
            if structural and edge_mask is not None:
                # Degree of the masked adjacency: structural removal changes
                # the renormalization, exactly as Graph.with_edges would.
                # Removed edges count against the cached degree, which a
                # receptive-field context preloads from the full graph, so a
                # boundary node keeps the in-edges the context cut off.
                # One sparse row-scale over the cached plan — no rebuild.
                removed = scatter_edge_major(
                    np.ascontiguousarray((1.0 - edge_mask).T), dst, num_nodes,
                    plan=plan)                                    # (N, B)
                deg = cache.deg[:, None] - removed
                deg_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
                coeff = deg_inv_sqrt[src] * deg_inv_sqrt[dst]    # (A, B)
            else:
                deg_inv_sqrt = cache.deg_inv_sqrt
                coeff = (deg_inv_sqrt[src] * deg_inv_sqrt[dst])[:, None]  # (A, 1)
        if edge_mask is not None:
            mask_t = edge_mask.T                                  # (A, B) view
            coeff = mask_t if coeff is None else coeff * mask_t
        if coeff is None:
            coeff = np.ones((src.shape[0], 1))

        out = gather_scatter_edge_major(h, src, coeff, dst, num_nodes,
                                        plan=plan)                # (N, B', out)
        if out.shape[1] != B:
            # No per-row mask reached a batch-shared payload: every row is
            # identical, so one aggregation serves the whole batch.
            out = np.broadcast_to(out, (num_nodes, B, out.shape[-1]))
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def __repr__(self) -> str:
        return f"GCNConv({self.in_features}, {self.out_features})"
