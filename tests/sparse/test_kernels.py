"""Kernel registry semantics and scipy-vs-numpy backend agreement."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import KernelError
from repro.sparse import (
    OPS,
    SegmentPlan,
    available_backends,
    current_backend,
    kernel,
    register_kernel,
    set_backend,
    use_backend,
)


@pytest.fixture
def plan():
    rng = np.random.default_rng(1)
    return SegmentPlan(rng.integers(0, 9, size=60), 9)


class TestRegistry:
    def test_required_backends_registered(self):
        assert "scipy" in available_backends()
        assert "numpy" in available_backends()

    def test_default_backend_is_scipy(self):
        assert current_backend() == "scipy"

    def test_register_unknown_op_raises(self):
        with pytest.raises(KernelError, match="unknown kernel op"):
            register_kernel("segment_frobnicate", "scipy", lambda *a: None)

    def test_set_unknown_backend_raises(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            set_backend("cuda")

    def test_resolve_unknown_op_raises(self):
        with pytest.raises(KernelError, match="unknown kernel op"):
            kernel("segment_frobnicate")

    def test_use_backend_restores_on_exit(self):
        assert current_backend() == "scipy"
        with use_backend("numpy"):
            assert current_backend() == "numpy"
        assert current_backend() == "scipy"
        with pytest.raises(RuntimeError):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert current_backend() == "scipy"

    def test_partial_backend_falls_back_to_scipy(self, plan):
        """A plugin implementing one op inherits scipy for the rest."""
        calls = []

        def traced_scatter(p, values):
            calls.append("plugin")
            return p.matrix @ values

        register_kernel("scatter_add", "plugin-test", traced_scatter)
        try:
            with use_backend("plugin-test"):
                values = np.ones((plan.num_items, 2))
                out = kernel("scatter_add")(plan, values)
                np.testing.assert_allclose(out[:, 0], plan.counts)
                # segment_max has no plugin impl: scipy fallback, no error.
                kernel("segment_max")(plan, values)
            assert calls == ["plugin"]
        finally:
            # De-register by overwriting with the scipy impl is not needed;
            # the throwaway backend just stays inactive.
            pass


class TestBackendAgreement:
    """Every op: scipy CSR result == numpy dense-scatter reference."""

    @pytest.mark.parametrize("op", [o for o in OPS if o != "spmm"])
    def test_plan_ops_agree(self, plan, op):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(plan.num_items, 4))
        if op == "gather_scatter":
            cols = rng.integers(0, 5, size=plan.num_items)
            weights = rng.normal(size=(plan.num_items, 3))
            dense = rng.normal(size=(5, 4))
            args = (plan, cols, weights, dense)
        else:
            args = (plan, values)
        with use_backend("scipy"):
            a = kernel(op)(*args)
        with use_backend("numpy"):
            b = kernel(op)(*args)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)

    def test_spmm_agrees(self):
        rng = np.random.default_rng(3)
        matrix = sp.random(6, 11, density=0.4, random_state=4, format="csr")
        dense = rng.normal(size=(11, 5))
        with use_backend("scipy"):
            a = kernel("spmm")(matrix, dense)
        with use_backend("numpy"):
            b = kernel("spmm")(matrix, dense)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)

    def test_segment_max_empty_segments_are_minus_inf(self, plan):
        index = np.array([0, 0, 2])
        small = SegmentPlan(index, 4)
        values = np.array([[1.0], [3.0], [-2.0]])
        for backend in ("scipy", "numpy"):
            with use_backend(backend):
                out = kernel("segment_max")(small, values)
            np.testing.assert_array_equal(out[:, 0],
                                          [3.0, -np.inf, -2.0, -np.inf])

    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_gather_scatter_broadcasts_shared_operands(self, backend):
        """Bw==1 coefficients and 2-D dense both re-expand correctly; column-
        major coefficients (the batched forward's mask views) work, and no
        operand is written to."""
        rng = np.random.default_rng(5)
        index = rng.integers(0, 4, size=12)
        cols = rng.integers(0, 6, size=12)
        plan = SegmentPlan(index, 4)
        dense3 = rng.normal(size=(6, 3, 2))          # per-row payloads
        shared_w = rng.normal(size=(12, 1))          # batch-shared coeff
        per_row_w = rng.normal(size=(12, 3))
        dense2 = rng.normal(size=(6, 2))             # batch-shared payload

        def reference(weights, dense):
            B = max(weights.shape[1], dense.shape[1] if dense.ndim == 3 else 1)
            out = np.zeros((4, B, 2))
            for i in range(12):
                for b in range(B):
                    w = weights[i, b if weights.shape[1] > 1 else 0]
                    d = dense[cols[i]] if dense.ndim == 2 else \
                        dense[cols[i], b if dense.shape[1] > 1 else 0]
                    out[index[i], b] += w * d
            return out

        with use_backend(backend):
            for weights, dense in ((shared_w, dense3), (per_row_w, dense2),
                                   (per_row_w, dense3), (shared_w, dense2),
                                   (np.asfortranarray(per_row_w), dense2),
                                   (np.asfortranarray(per_row_w), dense3)):
                before = weights.copy(), dense.copy()
                out = kernel("gather_scatter")(plan, cols, weights, dense)
                np.testing.assert_allclose(out, reference(weights, dense),
                                           rtol=0, atol=1e-8)
                np.testing.assert_array_equal(weights, before[0])
                np.testing.assert_array_equal(dense, before[1])


class TestDirectScatter:
    """The scipy ``scatter_add`` calls ``csr_matvec``/``csr_matvecs`` itself:
    bit for bit the product ``plan.matrix @ values`` it skips dispatching."""

    @pytest.mark.parametrize("width", [1, 2, 32])
    def test_equals_the_incidence_product(self, plan, width):
        values = np.random.default_rng(5).normal(size=(plan.num_items, width))
        out = kernel("scatter_add")(plan, values)
        assert out.shape == (plan.num_rows, width)
        assert np.array_equal(out, plan.matrix @ values)

    @pytest.mark.parametrize("width", [1, 5])
    def test_non_contiguous_input(self, plan, width):
        wide = np.random.default_rng(6).normal(size=(plan.num_items, 2 * width))
        values = wide[:, ::2]                     # a strided view
        assert not values.flags.c_contiguous
        assert np.array_equal(kernel("scatter_add")(plan, values), plan.matrix @ values)

    def test_empty_plan_gives_zero_rows(self):
        empty = SegmentPlan(np.zeros(0, dtype=np.int64), 4)
        out = kernel("scatter_add")(empty, np.zeros((0, 3)))
        assert np.array_equal(out, np.zeros((4, 3)))
