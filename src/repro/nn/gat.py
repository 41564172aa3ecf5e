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

    def message_parts(self, x: Tensor, cache: GraphSparseCache,
                      keep: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        # x is (N, F), or (N, B, F) for B stacked forwards.
        lead = x.shape[:-1]
        h = (x @ self.weight).reshape(lead + (self.heads, self.out_features))
        # Attention logits: a_src·h_i + a_dst·h_j per head.
        alpha_src = (h * self.att_src).sum(axis=-1)  # (N, [B,] H)
        alpha_dst = (h * self.att_dst).sum(axis=-1)  # (N, [B,] H)
        # Both endpoints' states are input rows; the softmax groups edges by
        # output row (the two coincide unless the layer is row-trimmed).
        logits = (alpha_src.gather_rows(cache.src, plan=cache.src_plan)
                  + alpha_dst.gather_rows(cache.dst_in, plan=cache.dst_in_plan)).leaky_relu(
            self.negative_slope
        )  # (num_aug, [B,] H)
        # Structural removal renormalizes attention over the kept in-edges;
        # Eq. (6) masking keeps the normalization intact.
        attention = segment_softmax(logits, cache.dst, cache.num_nodes,
                                    plan=cache.dst_plan, weights=keep)
        return h, attention.reshape(attention.shape + (1,))

    def update(self, aggregated: Tensor) -> Tensor:
        # aggregated: (N, [B,] H, F) attention-weighted (and masked) messages.
        if self.concat_heads:
            out = aggregated.reshape(aggregated.shape[:-2]
                                     + (self.heads * self.out_features,))
        else:
            out = aggregated.mean(axis=-2)
        return out + self.bias

    def __repr__(self) -> str:
        return (
            f"GATConv({self.in_features}, {self.out_features}, heads={self.heads}, "
            f"concat={self.concat_heads})"
        )
