"""Sparse CSR compute core: compiled segment structures + kernel registry.

The package has four small parts:

- :mod:`repro.sparse.structure` — :class:`SegmentPlan`, the compiled
  (argsort + indptr + lazy CSR) form of a fixed scatter index, plus the
  layer-edge id helpers shared with :mod:`repro.nn` and :mod:`repro.flows`.
- :mod:`repro.sparse.kernels` — the per-op backend registry (``scipy``
  required, ``numpy`` dense-scatter reference) behind :func:`kernel`.
- :mod:`repro.sparse.numba_backend` — optional njit segment kernels,
  registered as backend ``"numba"`` only where numba is importable
  (:data:`NUMBA_AVAILABLE`); ops it doesn't implement fall back to scipy.
- :mod:`repro.sparse.cache` — :func:`sparse_cache` attaching a
  :class:`GraphSparseCache` to each ``Graph``, plus the identity-keyed
  memos :func:`edge_cache` / :func:`plan_for` that give bare-array call
  sites (the autograd primitives) the same build-once-reuse-forever
  plans, :func:`feature_csr` giving a sparse feature matrix handed over
  dense a CSR twin (with its CSC transpose view) for the first-layer
  weight GEMM and its adjoint, and :func:`feature_dense`, its mirror: the
  memoized dense read of CSR-stored features.
"""

from .cache import (
    GraphSparseCache,
    edge_cache,
    feature_csr,
    feature_dense,
    plan_for,
    sparse_cache,
)
from .kernels import (
    OPS,
    available_backends,
    current_backend,
    kernel,
    register_kernel,
    set_backend,
    use_backend,
)
from .numba_backend import NUMBA_AVAILABLE
from .structure import SegmentPlan, augmented_edges, num_layer_edges

__all__ = [
    "SegmentPlan",
    "GraphSparseCache",
    "sparse_cache",
    "edge_cache",
    "plan_for",
    "feature_csr",
    "feature_dense",
    "augmented_edges",
    "num_layer_edges",
    "OPS",
    "kernel",
    "register_kernel",
    "set_backend",
    "use_backend",
    "current_backend",
    "available_backends",
    "NUMBA_AVAILABLE",
]
