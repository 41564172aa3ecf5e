"""Graph Attention Network layer (Veličković et al., 2018).

Multi-head additive attention over the self-loop-augmented edge set. Layer
edge masks multiply the attention-weighted messages (Eq. 6), which keeps
the attention normalization itself intact — the mask controls how much of
each (already normalized) message is delivered.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Parameter, Tensor, segment_softmax
from ..autograd.init import glorot_uniform, zeros
from ..rng import ensure_rng
from ..sparse import GraphSparseCache
from .message_passing import GraphConv

__all__ = ["GATConv"]


class GATConv(GraphConv):
    """One GAT layer with ``heads`` attention heads.

    Parameters
    ----------
    in_features:
        Input channel width.
    out_features:
        Output width *per head*.
    heads:
        Number of attention heads (the paper uses 8).
    concat_heads:
        Concatenate head outputs (hidden layers) or average them (output
        layer), as in the original architecture.
    negative_slope:
        LeakyReLU slope for attention logits.
    rng:
        Seed or generator for initialization.
    """

    def __init__(self, in_features: int, out_features: int, heads: int = 8,
                 concat_heads: bool = True, negative_slope: float = 0.2,
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        # One (in, out) projection per head, stored as a single matrix.
        self.weight = Parameter(
            glorot_uniform((in_features, heads * out_features), rng), name="weight"
        )
        self.att_src = Parameter(glorot_uniform((heads, out_features), rng), name="att_src")
        self.att_dst = Parameter(glorot_uniform((heads, out_features), rng), name="att_dst")
        bias_dim = heads * out_features if concat_heads else out_features
        self.bias = Parameter(zeros((bias_dim,)), name="bias")

    def message_parts(self, x: Tensor, cache: GraphSparseCache) -> tuple[Tensor, Tensor]:
        num_nodes, num_aug = cache.num_nodes, cache.src.shape[0]
        h = (x @ self.weight).reshape(num_nodes, self.heads, self.out_features)
        # Attention logits: a_src·h_i + a_dst·h_j per head.
        alpha_src = (h * self.att_src).sum(axis=-1)  # (N, H)
        alpha_dst = (h * self.att_dst).sum(axis=-1)  # (N, H)
        logits = (alpha_src.gather_rows(cache.src, plan=cache.src_plan)
                  + alpha_dst.gather_rows(cache.dst, plan=cache.dst_plan)).leaky_relu(
            self.negative_slope
        )  # (num_aug, H)
        attention = segment_softmax(logits, cache.dst, num_nodes, plan=cache.dst_plan)
        return h, attention.reshape(num_aug, self.heads, 1)

    def update(self, aggregated: Tensor) -> Tensor:
        # aggregated: (N, H, F) attention-weighted (and masked) messages.
        if self.concat_heads:
            out = aggregated.reshape(aggregated.shape[0], self.heads * self.out_features)
        else:
            out = aggregated.mean(axis=1)
        return out + self.bias

    def forward_np_batch(self, x: np.ndarray, edge_index: np.ndarray, num_nodes: int,
                         edge_mask: np.ndarray | None = None,
                         structural: bool = False,
                         cache: GraphSparseCache | None = None) -> np.ndarray:
        from .batched import scatter_edge_major, segment_softmax_edge_major

        if cache is None:
            cache = GraphSparseCache(edge_index, num_nodes)
        src, dst, plan = cache.src, cache.dst, cache.dst_plan
        B = x.shape[1]
        edge_mask = self._check_mask_np(edge_mask, B, edge_index.shape[1], num_nodes)
        mask_t = edge_mask.T if edge_mask is not None else None   # (A, B) view

        shared_x = x.strides[1] == 0
        if shared_x:
            # Batch-broadcast features: one projection / attention-logit
            # computation shared by all rows (batch axis kept at size 1;
            # the mask multiplies below re-expand it).
            h = (x[:, 0, :] @ self.weight.data).reshape(
                num_nodes, 1, self.heads, self.out_features
            )
        else:
            h = (x.reshape(-1, x.shape[-1]) @ self.weight.data).reshape(
                num_nodes, B, self.heads, self.out_features
            )
        alpha_src = (h * self.att_src.data).sum(axis=-1)   # (N, B', H)
        alpha_dst = (h * self.att_dst.data).sum(axis=-1)   # (N, B', H)
        logits = alpha_src[src] + alpha_dst[dst]           # (A, B', H)
        logits = np.where(logits > 0, logits, logits * self.negative_slope)
        # Structural removal renormalizes attention over surviving edges;
        # Eq. (6) masking keeps the normalization intact.
        weights = mask_t if (structural and edge_mask is not None) else None
        attention = segment_softmax_edge_major(logits, dst, num_nodes,
                                               weights=weights, plan=plan)

        messages = h[src] * attention[:, :, :, None]       # (A, B', H, F)
        if edge_mask is not None and not structural:
            messages = messages * mask_t[:, :, None, None]
        out = scatter_edge_major(messages, dst, num_nodes, plan=plan)  # (N, B', H, F)
        if out.shape[1] != B:
            out = np.broadcast_to(out, (num_nodes, B) + out.shape[2:])

        if self.concat_heads:
            out = out.reshape(num_nodes, B, self.heads * self.out_features)
        else:
            out = out.mean(axis=2)
        return out + self.bias.data

    def __repr__(self) -> str:
        return (
            f"GATConv({self.in_features}, {self.out_features}, heads={self.heads}, "
            f"concat={self.concat_heads})"
        )
