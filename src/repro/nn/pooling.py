"""Global pooling layers for graph-level readout."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..sparse import kernel, plan_for

__all__ = ["global_mean_pool", "global_sum_pool", "global_max_pool"]


def global_sum_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Sum node embeddings per graph: ``(N, F) -> (G, F)``."""
    return x.scatter_add(batch, num_graphs, plan=plan_for(batch, num_graphs))


def global_mean_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Average node embeddings per graph: ``(N, F) -> (G, F)``."""
    plan = plan_for(batch, num_graphs)
    sums = x.scatter_add(batch, num_graphs, plan=plan)
    counts = np.maximum(plan.counts, 1.0)
    return sums / Tensor(counts[:, None])


def global_max_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Elementwise max of node embeddings per graph: ``(N, F) -> (G, F)``.

    One op: the per-graph max, its argmax rows and their tie counts are
    computed in the forward thunk, and the gradient flows to the argmax
    rows (ties share it equally).
    """
    plan = plan_for(batch, num_graphs)
    tail = x.shape[1:]
    width = int(np.prod(tail)) if tail else 1
    is_max = ties = None

    def segments(values: np.ndarray, op: str) -> np.ndarray:
        out = kernel(op)(plan, values.reshape(x.shape[0], width))
        return out.reshape((num_graphs,) + tail)

    def forward():
        nonlocal is_max, ties
        is_max = x.data == segments(x.data, "segment_max")[batch]
        ties = np.maximum(segments(is_max.astype(np.float64), "scatter_add"), 1.0)
        return segments(np.where(is_max, x.data, 0.0), "scatter_add") / ties

    def adjoint(g):
        return (g / ties)[batch] * is_max

    return Tensor._op(forward, (x,), lambda b, g: (b.new(adjoint, x.shape, g),))
