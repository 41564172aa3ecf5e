"""Optional numba backend: njit segment kernels over the CSR plan.

Registered only when ``numba`` is importable — the plugin-contract proof
the registry was built for: this module implements exactly the ops it
accelerates (``scatter_add`` and ``segment_max``; ``spmm`` and
``gather_scatter`` fall back to scipy per-op through :func:`kernel`'s
required-backend fallback), touches no call sites, and the rest of the
engine is oblivious to whether it loaded.

The kernels walk the plan's ``(order, indptr)`` CSR layout directly —
each output row reduces its own contiguous slice of the segment-sorted
payload, so the loops parallelize over rows with no write contention
(``prange``) and the summation order inside a segment matches the scipy
backend's ``reduceat``/CSR order: sorted-by-segment, stable within.

Import cost is paid lazily by numba itself: ``@njit(cache=True)`` defers
compilation to first call and persists the machine code next to this
file, so a warm process pays a dict lookup, not an LLVM pass.
"""

from __future__ import annotations

import numpy as np

from .kernels import register_kernel
from .structure import SegmentPlan

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    numba = None
    NUMBA_AVAILABLE = False

__all__: list[str] = []


if NUMBA_AVAILABLE:  # pragma: no cover - CI optional-deps leg runs this

    @numba.njit(parallel=True, cache=True)
    def _segment_sum_csr(sorted_values, indptr, out):  # pragma: no cover
        for row in numba.prange(indptr.shape[0] - 1):
            for i in range(indptr[row], indptr[row + 1]):
                for k in range(sorted_values.shape[1]):
                    out[row, k] += sorted_values[i, k]

    @numba.njit(parallel=True, cache=True)
    def _segment_max_csr(sorted_values, indptr, out):  # pragma: no cover
        for row in numba.prange(indptr.shape[0] - 1):
            for i in range(indptr[row], indptr[row + 1]):
                for k in range(sorted_values.shape[1]):
                    if sorted_values[i, k] > out[row, k]:
                        out[row, k] = sorted_values[i, k]

    def _numba_scatter_add(plan: SegmentPlan, values: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros((plan.num_rows, values.shape[1]))
        else:
            out.fill(0.0)
        if plan.num_items == 0:
            return out
        sorted_values = np.ascontiguousarray(
            np.asarray(values, dtype=np.float64)[plan.order])
        _segment_sum_csr(sorted_values, plan.indptr, out)
        return out

    def _numba_segment_max(plan: SegmentPlan, values: np.ndarray) -> np.ndarray:
        out = np.full((plan.num_rows, values.shape[1]), -np.inf)
        if plan.num_items == 0:
            return out
        sorted_values = np.ascontiguousarray(
            np.asarray(values, dtype=np.float64)[plan.order])
        _segment_max_csr(sorted_values, plan.indptr, out)
        return out


def register_numba_backend() -> bool:
    """Register the numba kernels if numba is importable; return success.

    Idempotent — re-registration overwrites with the same functions. The
    package ``__init__`` calls this at import so the backend appears in
    :func:`available_backends` wherever the dependency exists, and nowhere
    else.
    """
    if not NUMBA_AVAILABLE:
        return False
    register_kernel("scatter_add", "numba", _numba_scatter_add)
    register_kernel("segment_max", "numba", _numba_segment_max)
    return True


register_numba_backend()
