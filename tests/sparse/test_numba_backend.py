"""The optional numba backend: gated registration and kernel parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import NUMBA_AVAILABLE, SegmentPlan, kernel, use_backend
from repro.sparse.kernels import available_backends
from repro.sparse.numba_backend import register_numba_backend

requires_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba not installed")


class TestGatedRegistration:
    def test_registration_tracks_importability(self):
        """The backend exists exactly where the dependency does."""
        assert ("numba" in available_backends()) == NUMBA_AVAILABLE

    def test_register_reports_availability(self):
        assert register_numba_backend() == NUMBA_AVAILABLE

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba installed")
    def test_absent_numba_leaves_registry_untouched(self):
        assert "numba" not in available_backends()


@requires_numba
class TestNumbaKernels:
    @pytest.fixture
    def plan(self):
        rng = np.random.default_rng(3)
        return SegmentPlan(rng.integers(0, 11, size=80), 13)

    def test_scatter_add_matches_scipy(self, plan):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(plan.num_items, 5))
        with use_backend("numba"):
            got = kernel("scatter_add")(plan, values)
        with use_backend("scipy"):
            want = kernel("scatter_add")(plan, values)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_segment_max_matches_scipy(self, plan):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(plan.num_items, 4))
        with use_backend("numba"):
            got = kernel("segment_max")(plan, values)
        with use_backend("scipy"):
            want = kernel("segment_max")(plan, values)
        # Exact: max is order-independent, and empty rows are -inf in both.
        assert np.array_equal(got, want)

    def test_empty_plan(self):
        plan = SegmentPlan(np.array([], dtype=np.int64), 4)
        with use_backend("numba"):
            out = kernel("scatter_add")(plan, np.zeros((0, 2)))
            seg = kernel("segment_max")(plan, np.zeros((0, 2)))
        assert out.shape == (4, 2) and not out.any()
        assert np.all(np.isneginf(seg))

    def test_unimplemented_ops_fall_back_to_scipy(self, plan):
        """The plugin contract: partial backends inherit scipy per-op."""
        import scipy.sparse as sp

        matrix = sp.csr_matrix(np.eye(3))
        with use_backend("numba"):
            out = kernel("spmm")(matrix, np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(out, np.arange(6.0).reshape(3, 2))
