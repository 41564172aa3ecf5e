"""Per-op sparse kernel registry with pluggable backends.

Modeled on DGL's kernel layer (``csr_transpose`` / ``gather_mm`` /
``binary_reduce`` dispatch to per-device C++ implementations behind one
operator table): every segment operation the engine needs is a named
*op*, each op has one implementation per *backend*, and call sites
resolve through :func:`kernel` so a backend swap never touches the
numerics code.

Ops (all 2-D; callers flatten trailing axes):

``scatter_add(plan, values, out=None)``
    ``(A, W) -> (N, W)`` segment sum over a :class:`~repro.sparse.structure.SegmentPlan`.
    Given ``out`` (a C-contiguous float64 ``(N, W)`` array), the kernel
    zeroes it, fills it and returns it, with the bits it would return
    new. :func:`scatter_add_steps` binds one such call, over arrays that
    keep their addresses, once: the form a compiled tape runs every epoch.
``segment_max(plan, values)``
    ``(A, W) -> (N, W)`` segment max; empty segments yield ``-inf``.
``spmm(matrix, dense)``
    Sparse CSR × dense product (flow-incidence aggregation, Eq. 7).
``gather_scatter(plan, cols, weights, dense)``
    Fused gather → edge-weight → scatter:
    ``out[r, b] = Σ_{i: index[i]=r} weights[i, b] · dense[cols[i], b]``.
    The message-passing inner loop as one weighted SpMM per mask row —
    the ``(A, B, F)`` per-edge message tensor the dense-scatter path
    materializes never exists here, which is where the engine's headroom
    at million-edge scale comes from.

Backends:

``"scipy"``
    The required backend: cached-CSR matmuls and ``reduceat`` reductions.
    Always registered, always complete — other backends fall back to it
    per-op, so a plugin only has to implement the ops it accelerates.
``"numpy"``
    The dense-scatter reference (``np.add.at`` / ``np.maximum.at``) —
    bit-faithful to the pre-CSR code paths; the baseline the
    ``scaling_law`` benchmark measures the CSR core against, and the
    oracle the equivalence tests pin it to.

Plugging a backend::

    from repro.sparse import register_kernel, use_backend

    def my_scatter_add(plan, values, out=None):
        if out is None:
            out = np.empty((plan.num_rows, values.shape[1]))
        out[...] = 0.0
        mylib.segment_sum(plan.indptr, values[plan.order], out)
        return out

    register_kernel("scatter_add", "mylib", my_scatter_add)
    with use_backend("mylib"):
        model.forward_masked_batch(graph, masks)   # dispatches to mylib
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from ..errors import KernelError
from .structure import SegmentPlan

__all__ = ["OPS", "kernel", "register_kernel", "use_backend"]

#: The complete op vocabulary; registering an unknown op is an error so a
#: typo'd name fails at registration instead of at dispatch.
OPS = ("scatter_add", "segment_max", "spmm", "gather_scatter")

#: The backend every op must exist for; incomplete backends fall back to it.
REQUIRED_BACKEND = "scipy"

# op -> backend -> implementation
_KERNELS: dict[str, dict[str, Callable]] = {op: {} for op in OPS}
_ACTIVE: list[str] = [REQUIRED_BACKEND]


# ----------------------------------------------------------------------
# registry API
# ----------------------------------------------------------------------
def register_kernel(op: str, backend: str, fn: Callable) -> None:
    """Register ``fn`` as the implementation of ``op`` for ``backend``."""
    if op not in _KERNELS:
        raise KernelError(f"unknown kernel op {op!r}; expected one of {OPS}")
    _KERNELS[op][backend] = fn


def available_backends() -> tuple[str, ...]:
    """Backends with at least one registered op, sorted."""
    names = {b for table in _KERNELS.values() for b in table}
    return tuple(sorted(names))


def set_backend(name: str) -> None:
    """Select the dispatch backend for subsequent :func:`kernel` calls."""
    if name not in available_backends():
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        )
    _ACTIVE[0] = name


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily dispatch to ``name`` (benchmark baselines, tests)."""
    prev = _ACTIVE[0]
    set_backend(name)
    try:
        yield
    finally:
        _ACTIVE[0] = prev


def kernel(op: str) -> Callable:
    """Resolve ``op`` for the active backend (falling back to scipy).

    The fallback means a partial backend accelerates what it implements
    and inherits the required backend for the rest — the cheapest
    possible plugin contract.
    """
    table = _KERNELS.get(op)
    if table is None:
        raise KernelError(f"unknown kernel op {op!r}; expected one of {OPS}")
    fn = table.get(_ACTIVE[0])
    if fn is None:
        fn = table.get(REQUIRED_BACKEND)
    if fn is None:
        raise KernelError(f"op {op!r} has no implementation for backend "
                          f"{_ACTIVE[0]!r} and no scipy fallback")
    return fn


# ----------------------------------------------------------------------
# scipy backend (required): cached-CSR matmuls + reduceat reductions
# ----------------------------------------------------------------------
def _scipy_scatter_add(plan: SegmentPlan, values: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    rows, width = plan.num_rows, values.shape[1]
    if out is None:
        out = np.zeros((rows, width))
    else:
        out.fill(0.0)
    if plan.num_items == 0:
        return out
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    _csr_product(plan, width, flat, out.ravel())()
    return out


def _csr_product(plan: SegmentPlan, width: int, flat: np.ndarray,
                 dest: np.ndarray) -> Callable[[], None]:
    """The routine ``plan.matrix @ values`` ends in (csr_matvec for one
    column, csr_matvecs for more), bound to the flat ``values`` and
    ``dest`` and called without scipy's per-call dispatch: the same sums
    in the same order, added into ``dest``."""
    matrix = plan.matrix
    if width == 1:
        return partial(_sparsetools.csr_matvec, plan.num_rows, plan.num_items,
                       matrix.indptr, matrix.indices, matrix.data, flat, dest)
    return partial(_sparsetools.csr_matvecs, plan.num_rows, plan.num_items, width,
                   matrix.indptr, matrix.indices, matrix.data, flat, dest)


def scatter_add_steps(plan: SegmentPlan, values: np.ndarray,
                      out: np.ndarray) -> tuple[Callable[[], object], ...]:
    """``scatter_add(plan, values, out=out)`` as zero-argument steps,
    resolved once under the backend active now.

    ``values`` ``(A, W)`` and ``out`` ``(N, W)`` are C-contiguous float64
    arrays that keep their addresses while the steps are used. The scipy
    kernel binds the two calls it ends in — zero ``out``, then
    :func:`_csr_product` — with both flat views prepared here, so a run
    pays none of its per-call checks. Any other
    implementation the registry resolves (another backend, or a wrapper
    registered over this one) is bound as one call of itself.
    """
    if not (values.flags.c_contiguous and out.flags.c_contiguous):
        raise KernelError("bound scatter_add needs C-contiguous values and out")
    fn = kernel("scatter_add")
    if fn is not _scipy_scatter_add:
        return (partial(fn, plan, values, out=out),)
    zero = partial(out.fill, 0.0)
    if plan.num_items == 0:
        return (zero,)
    return (zero, _csr_product(plan, values.shape[1], values.reshape(-1), out.reshape(-1)))


def _scipy_segment_max(plan: SegmentPlan, values: np.ndarray) -> np.ndarray:
    out = np.full((plan.num_rows, values.shape[1]), -np.inf)
    if plan.num_items == 0:
        return out
    nonempty = plan.counts > 0
    starts = plan.indptr[:-1][nonempty]
    # reduceat over the segment-sorted payload: consecutive starts bound
    # exactly one (non-empty) segment each, empties were filtered above.
    out[nonempty] = np.maximum.reduceat(values[plan.order], starts, axis=0)
    return out


def _scipy_spmm(matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    return matrix @ dense


#: Below this edge count the fused per-row weighted SpMM loses to one
#: incidence matmul over the materialized messages: B scipy-level CSR
#: constructions cost more than the (A, B, K) expansion they avoid.
_FUSED_MIN_ITEMS = 2048


def _scipy_gather_scatter(plan: SegmentPlan, cols: np.ndarray,
                          weights: np.ndarray, dense: np.ndarray) -> np.ndarray:
    num_src, K = dense.shape[0], dense.shape[-1]
    Bw = weights.shape[1]
    Bd = dense.shape[1] if dense.ndim == 3 else 1
    B = max(Bw, Bd)
    out = np.zeros((plan.num_rows, B, K))
    if plan.num_items == 0:
        return out
    if plan.num_items < _FUSED_MIN_ITEMS:
        # Small graphs: materialize the (A, B, K) messages and reduce them
        # with one unit-data incidence matmul amortized over all B rows.
        # The messages are built C-ordered (contiguous weights) and, when
        # the gather already has all B rows, scaled in place in that fresh
        # copy, so the only (A, B, K) buffer is the messages themselves.
        gathered = dense[cols]
        if dense.ndim == 2:
            gathered = gathered[:, None, :]
        scale = np.ascontiguousarray(weights)[:, :, None]
        if gathered.shape[1] == B:
            gathered *= scale
            messages = gathered
        else:
            messages = scale * gathered
        flat = messages.reshape(plan.num_items, B * K)
        return (plan.matrix @ flat).reshape(plan.num_rows, B, K)
    # Million-edge regime: one CSR per mask row, all sharing the cached
    # (indices, indptr) structure — only the data vector (the edge
    # weights) changes, so the per-row build is an O(A) copy, not a sort,
    # and the (A, B, K) message tensor is never materialized.
    indices = np.ascontiguousarray(cols[plan.order])
    w_sorted = np.ascontiguousarray(weights[plan.order])
    for b in range(B):
        data = np.ascontiguousarray(w_sorted[:, b if Bw > 1 else 0])
        mat = sp.csr_matrix((data, indices, plan.indptr),
                            shape=(plan.num_rows, num_src))
        rhs = dense if dense.ndim == 2 else dense[:, b if Bd > 1 else 0, :]
        out[:, b, :] = mat @ np.ascontiguousarray(rhs)
    return out


register_kernel("scatter_add", "scipy", _scipy_scatter_add)
register_kernel("segment_max", "scipy", _scipy_segment_max)
register_kernel("spmm", "scipy", _scipy_spmm)
register_kernel("gather_scatter", "scipy", _scipy_gather_scatter)


# ----------------------------------------------------------------------
# numpy backend: the dense-scatter reference implementation
# ----------------------------------------------------------------------
def _numpy_scatter_add(plan: SegmentPlan, values: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.zeros((plan.num_rows, values.shape[1]))
    else:
        out.fill(0.0)
    np.add.at(out, plan.index, values)
    return out


def _numpy_segment_max(plan: SegmentPlan, values: np.ndarray) -> np.ndarray:
    out = np.full((plan.num_rows, values.shape[1]), -np.inf)
    np.maximum.at(out, plan.index, values)
    return out


def _numpy_spmm(matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    coo = matrix.tocoo()
    out = np.zeros((matrix.shape[0],) + dense.shape[1:])
    np.add.at(out, coo.row, coo.data.reshape((-1,) + (1,) * (dense.ndim - 1))
              * dense[coo.col])
    return out


def _numpy_gather_scatter(plan: SegmentPlan, cols: np.ndarray,
                          weights: np.ndarray, dense: np.ndarray) -> np.ndarray:
    K = dense.shape[-1]
    Bw = weights.shape[1]
    Bd = dense.shape[1] if dense.ndim == 3 else 1
    B = max(Bw, Bd)
    out = np.zeros((plan.num_rows, B, K))
    if plan.num_items == 0:
        return out
    gathered = dense[cols]
    if dense.ndim == 2:
        gathered = gathered[:, None, :]
    # The dense-scatter reference materializes the full (A, B, K) message
    # tensor and loops np.add.at over it — the path the CSR backend exists
    # to beat.
    messages = weights[:, :, None] * gathered
    if messages.shape[1] != B:
        messages = np.broadcast_to(messages, (plan.num_items, B, K))
    np.add.at(out, plan.index, messages)
    return out


register_kernel("scatter_add", "numpy", _numpy_scatter_add)
register_kernel("segment_max", "numpy", _numpy_segment_max)
register_kernel("spmm", "numpy", _numpy_spmm)
register_kernel("gather_scatter", "numpy", _numpy_gather_scatter)
