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

    Implemented by shifting each graph's rows so the max reduction can run
    per segment via a one-hot selection; gradient flows to the argmax rows.
    """
    # Compute per-segment max at the data level, then rebuild a
    # differentiable selection using where().
    from ..autograd.tensor import where

    plan = plan_for(batch, num_graphs)
    tail = x.shape[1:]
    width = int(np.prod(tail)) if tail else 1
    data_max = kernel("segment_max")(plan, x.data.reshape(x.shape[0], width))
    data_max = data_max.reshape((num_graphs,) + tail)
    is_max = x.data == data_max[batch]
    # Zero out non-max entries (ties share gradient via scatter_add below,
    # then are divided by the tie count).
    ties = kernel("scatter_add")(
        plan, is_max.reshape(x.shape[0], width).astype(np.float64)
    ).reshape((num_graphs,) + tail)
    selected = where(is_max, x, Tensor(np.zeros(x.shape)))
    pooled = selected.scatter_add(batch, num_graphs, plan=plan)
    return pooled / Tensor(np.maximum(ties, 1.0))
