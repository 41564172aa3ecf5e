"""Functional neural-network operations built on :class:`~repro.autograd.Tensor`.

Everything here composes the primitive ops from :mod:`repro.autograd.tensor`
(so gradients come for free) except where a fused implementation is clearer
or numerically safer (softmax family, segment softmax for GAT attention).
A stabilizing shift (a max) is computed inside its op's forward thunk, so a
replayed :class:`~repro.autograd.Tape` recomputes it.
"""

from __future__ import annotations

import numpy as np

from ..errors import AutogradError, ShapeError
from ..sparse import SegmentPlan, kernel, plan_for
from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "segment_softmax",
    "spmm",
]


def spmm(x: Tensor, matrix, matrix_t) -> Tensor:
    """Sparse aggregation ``matrix @ x`` on the tape.

    The fused fast path for unmasked message passing: with a cached
    ``(N, N)`` aggregation operator (e.g. ``sparse_cache(graph).adj_norm``)
    the whole gather → edge-scale → scatter chain of a conv layer collapses
    into one sparse matmul, and its adjoint into another — no per-edge
    ``(E+N, F)`` intermediate is ever materialized. Both directions
    dispatch through the active :mod:`repro.sparse` kernel backend's
    ``spmm`` op, so the numpy backend still reproduces the dense-scatter
    (``np.add.at``) reference semantics for oracle comparisons.

    Parameters
    ----------
    x:
        ``(N, F)`` dense operand.
    matrix:
        Sparse ``(M, N)`` forward operator.
    matrix_t:
        Its precompiled transpose — the backward pass is
        ``dX = matrix.T @ g`` and a cached transpose keeps the adjoint as
        cheap as the forward (``sparse_cache`` exposes ``adj_t`` /
        ``adj_norm_t`` for exactly this).
    """
    x = as_tensor(x)
    return x._unary_op(lambda: kernel("spmm")(matrix, x.data),
                       lambda g: (kernel("spmm")(matrix_t, g),))


def _shifted(x: Tensor, shift) -> Tensor:
    """``x − shift(x.data)``, the shift a constant of the op: softmax is
    shift-invariant, so the gradient passes straight through."""
    return x._unary_op(lambda out=None: np.subtract(x.data, shift(x.data), out=out),
                       lambda g: (g,), fills=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    exp = _shifted(x, lambda data: data.max(axis=axis, keepdims=True)).exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``, as one tape node.

    ``x − m − log Σ exp(x − m)`` with ``m`` the max; the gradient
    ``g − exp(x − m) · Σg / Σexp(x − m)`` repeats the arithmetic of that
    chain's backward in the same order.
    """
    x = as_tensor(x)
    exp = total = None

    def forward(out=None):
        nonlocal exp, total
        shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
        exp = np.exp(shifted)
        total = np.add.reduce(exp, axis=axis, keepdims=True)
        return np.subtract(shifted, np.log(total), out=out)

    return x._unary_op(
        forward, lambda g: (g + np.add.reduce(-g, axis=axis, keepdims=True) / total * exp,),
        fills=True)


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``(n, C)`` log-probabilities (e.g. from :func:`log_softmax`).
    labels:
        ``(n,)`` integer class labels.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if log_probs.ndim != 2:
        raise ShapeError(f"nll_loss expects (n, C) log-probs, got {log_probs.shape}")
    picked = log_probs[np.arange(labels.shape[0]), labels]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise AutogradError(f"unknown reduction {reduction!r}")


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy on raw ``logits``."""
    return nll_loss(log_softmax(logits, axis=-1), labels, reduction=reduction)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int,
                    plan: SegmentPlan | None = None,
                    weights: np.ndarray | None = None) -> Tensor:
    """Softmax over groups of rows sharing a segment id.

    This is the attention normalization of GAT: for each destination node,
    the attention logits of its incoming edges are softmax-normalized.

    Every segment reduction inside — the stabilizing per-segment max, the
    denominator scatter-add, and both ops' adjoints — dispatches through
    the active :mod:`repro.sparse` kernel backend over one shared plan.

    Parameters
    ----------
    scores:
        ``(n,)`` or ``(n, H)`` logits (one column per attention head).
    segment_ids:
        ``(n,)`` integer segment assignment (the destination node of each
        edge).
    num_segments:
        Total number of segments (number of nodes).
    plan:
        Optional precompiled :class:`SegmentPlan` over
        ``(segment_ids, num_segments)`` — e.g. a per-graph
        ``sparse_cache(graph).dst_plan``. Defaults to the identity-keyed
        ``plan_for`` memo.
    weights:
        Optional ``(n,)`` or ``(n, B)`` multipliers on the exponentials,
        broadcast over the trailing axes of ``scores`` (``(n, B, H)``
        logits of ``B`` stacked forwards). Binary weights renormalize
        each segment over its kept rows only — structural edge removal —
        and a segment with no kept row gets zeros instead of ``0/0``.
    """
    scores = as_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is None:
        plan = plan_for(segment_ids, num_segments)
    else:
        plan.check_shape(segment_ids.shape[0], int(num_segments))
    tail = scores.shape[1:]
    width = int(np.prod(tail)) if tail else 1

    def segment_max(data):
        # Per-segment max for stability (a constant of the shift, which is
        # valid because subtracting any constant leaves softmax fixed).
        seg_max = kernel("segment_max")(plan, data.reshape(data.shape[0], width))
        seg_max = seg_max.reshape((num_segments,) + tail)
        seg_max[~np.isfinite(seg_max)] = 0.0  # empty segments
        return seg_max[segment_ids]

    exp = _shifted(scores, segment_max).exp()
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        exp = exp * Tensor(weights.reshape(weights.shape + (1,) * (exp.ndim - weights.ndim)))
    denom = exp.scatter_add(segment_ids, num_segments, plan=plan)
    if weights is not None:
        denom = denom.clip(1e-300, np.inf)  # segments with every row removed
    return exp / denom.gather_rows(segment_ids, plan=plan)
