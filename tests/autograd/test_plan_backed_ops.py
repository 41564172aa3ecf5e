"""Gradient checks for the plan-backed message-passing primitives.

Every registered sparse backend (scipy always; numpy always; numba where
installed) must produce forward values and backward gradients that match
the ``np.add.at`` dense-scatter oracle to 1e-8 and the finite-difference
estimate, including the degenerate plans training actually hits: empty
segments (isolated nodes) and duplicated indices (multi-edges).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, segment_softmax, spmm
from repro.autograd.grad_check import check_gradients
from repro.sparse import SegmentPlan, feature_csr, use_backend
from repro.sparse.kernels import available_backends

PARITY_TOL = 1e-8

#: (index, num_rows) plans covering the shapes training dispatches over:
#: a dense happy path, empty segments at both ends, duplicate indices
#: hammering one row, and a single-item edge case.
PLANS = {
    "dense": (np.array([2, 0, 1, 2, 0, 1, 2, 1]), 3),
    "empty_segments": (np.array([1, 1, 3, 3, 3]), 6),
    "duplicates": (np.array([0, 0, 0, 0, 2]), 4),
    "single": (np.array([0]), 1),
}


def backends() -> list[str]:
    # Every registered backend, numba included wherever it is installed.
    # The numpy backend *is* the oracle, so its parity cases are identity
    # checks — kept anyway so its gradients are finite-difference-checked
    # like the others.
    return list(available_backends())


def oracle_scatter(values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    out = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


@pytest.fixture(params=sorted(PLANS))
def plan_case(request):
    index, num_rows = PLANS[request.param]
    return np.asarray(index, dtype=np.int64), num_rows


@pytest.fixture(params=backends())
def backend(request):
    return request.param


class TestScatterAddParity:
    def test_forward_matches_oracle(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(0)
        values = rng.normal(size=(index.shape[0], 3))
        with use_backend(backend):
            out = Tensor(values).scatter_add(index, num_rows).numpy()
        assert np.abs(out - oracle_scatter(values, index, num_rows)).max() < PARITY_TOL

    def test_backward_matches_oracle(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(1)
        x_plan = Tensor(rng.normal(size=(index.shape[0], 2)), requires_grad=True)
        x_dense = Tensor(x_plan.data.copy(), requires_grad=True)
        weights = rng.normal(size=(num_rows, 2))
        with use_backend(backend):
            (x_plan.scatter_add(index, num_rows) * Tensor(weights)).sum().backward()
        with use_backend("numpy"):
            (x_dense.scatter_add(index, num_rows) * Tensor(weights)).sum().backward()
        assert np.abs(x_plan.grad - x_dense.grad).max() < PARITY_TOL

    def test_gradcheck(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(index.shape[0], 2)), requires_grad=True)
        weights = Tensor(rng.normal(size=(num_rows, 2)))
        with use_backend(backend):
            check_gradients(
                lambda: (x.scatter_add(index, num_rows) * weights).sum(), [x])

    def test_explicit_plan_matches_memoized(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(3)
        values = rng.normal(size=(index.shape[0], 2))
        plan = SegmentPlan(index, num_rows)
        with use_backend(backend):
            explicit = Tensor(values).scatter_add(index, num_rows, plan=plan)
            memoized = Tensor(values).scatter_add(index, num_rows)
        assert np.array_equal(explicit.numpy(), memoized.numpy())


class TestGatherRowsParity:
    def test_backward_matches_oracle(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(4)
        x_plan = Tensor(rng.normal(size=(num_rows, 3)), requires_grad=True)
        x_dense = Tensor(x_plan.data.copy(), requires_grad=True)
        weights = rng.normal(size=(index.shape[0], 3))
        # The adjoint of a gather is a scatter-add over the same index —
        # exactly the op whose backend dispatch is under test.
        with use_backend(backend):
            (x_plan.gather_rows(index) * Tensor(weights)).sum().backward()
        with use_backend("numpy"):
            (x_dense.gather_rows(index) * Tensor(weights)).sum().backward()
        assert np.abs(x_plan.grad - x_dense.grad).max() < PARITY_TOL

    def test_gradcheck(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(num_rows, 2)), requires_grad=True)
        weights = Tensor(rng.normal(size=(index.shape[0], 2)))
        with use_backend(backend):
            check_gradients(
                lambda: (x.gather_rows(index) * weights).sum(), [x])


class TestSegmentSoftmaxParity:
    def test_forward_and_backward_match_oracle(self, plan_case, backend):
        index, num_rows = plan_case
        rng = np.random.default_rng(6)
        s_plan = Tensor(rng.normal(size=(index.shape[0], 2)), requires_grad=True)
        s_dense = Tensor(s_plan.data.copy(), requires_grad=True)
        weights = rng.normal(size=(index.shape[0], 2))

        with use_backend(backend):
            out_plan = segment_softmax(s_plan, index, num_rows)
            (out_plan * Tensor(weights)).sum().backward()
        with use_backend("numpy"):
            out_dense = segment_softmax(s_dense, index, num_rows)
            (out_dense * Tensor(weights)).sum().backward()
        assert np.abs(out_plan.numpy() - out_dense.numpy()).max() < PARITY_TOL
        assert np.abs(s_plan.grad - s_dense.grad).max() < PARITY_TOL

    def test_rows_sum_to_one_per_segment(self, backend):
        index, num_rows = PLANS["dense"]
        rng = np.random.default_rng(7)
        with use_backend(backend):
            out = segment_softmax(Tensor(rng.normal(size=index.shape[0])),
                                  index, num_rows).numpy()
        sums = oracle_scatter(out[:, None], index, num_rows)[:, 0]
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_gradcheck(self, backend):
        index, num_rows = PLANS["duplicates"]
        rng = np.random.default_rng(8)
        s = Tensor(rng.normal(size=(index.shape[0],)), requires_grad=True)
        weights = Tensor(rng.normal(size=(index.shape[0],)))
        with use_backend(backend):
            check_gradients(
                lambda: (segment_softmax(s, index, num_rows) * weights).sum(), [s])


class TestSpmmParity:
    @staticmethod
    def operators():
        import scipy.sparse as sp

        rng = np.random.default_rng(9)
        dense = (rng.random((5, 4)) < 0.5) * rng.normal(size=(5, 4))
        matrix = sp.csr_matrix(dense)
        return matrix, sp.csr_matrix(matrix.T)

    def test_forward_and_backward_match_oracle(self, backend):
        matrix, matrix_t = self.operators()
        rng = np.random.default_rng(10)
        x_plan = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x_dense = Tensor(x_plan.data.copy(), requires_grad=True)
        weights = rng.normal(size=(5, 3))

        with use_backend(backend):
            out_plan = spmm(x_plan, matrix, matrix_t)
            (out_plan * Tensor(weights)).sum().backward()
        with use_backend("numpy"):
            out_dense = spmm(x_dense, matrix, matrix_t)
            (out_dense * Tensor(weights)).sum().backward()
        assert np.abs(out_plan.numpy() - (matrix @ x_plan.data)).max() < PARITY_TOL
        assert np.abs(out_plan.numpy() - out_dense.numpy()).max() < PARITY_TOL
        assert np.abs(x_plan.grad - x_dense.grad).max() < PARITY_TOL

    def test_gradcheck(self, backend):
        matrix, matrix_t = self.operators()
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = Tensor(rng.normal(size=(5, 2)))
        with use_backend(backend):
            check_gradients(
                lambda: (spmm(x, matrix, matrix_t) * weights).sum(), [x])


class TestSparseFeatureMatmul:
    """The annotate_sparse fast path for constant-feature weight GEMMs."""

    def features(self):
        rng = np.random.default_rng(12)
        x = (rng.random((20, 15)) < 0.03).astype(np.float64)
        return x, feature_csr(x)

    def test_forward_and_weight_grad_match_dense(self):
        x, twin = self.features()
        rng = np.random.default_rng(13)
        w_fast = Tensor(rng.normal(size=(15, 4)), requires_grad=True)
        w_dense = Tensor(w_fast.data.copy(), requires_grad=True)
        weights = rng.normal(size=(20, 4))

        out_fast = Tensor(x).annotate_sparse(*twin) @ w_fast
        (out_fast * Tensor(weights)).sum().backward()
        out_dense = Tensor(x) @ w_dense
        (out_dense * Tensor(weights)).sum().backward()

        assert np.abs(out_fast.numpy() - out_dense.numpy()).max() < PARITY_TOL
        assert np.abs(w_fast.grad - w_dense.grad).max() < PARITY_TOL

    def test_gradcheck(self):
        x, twin = self.features()
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(15, 3)), requires_grad=True)
        annotated = Tensor(x).annotate_sparse(*twin)
        check_gradients(lambda: ((annotated @ w) ** 2).sum(), [w])

    def test_grad_requiring_operand_falls_back_to_dense_path(self):
        x, twin = self.features()
        rng = np.random.default_rng(15)
        lhs = Tensor(x, requires_grad=True).annotate_sparse(*twin)
        w = Tensor(rng.normal(size=(15, 3)), requires_grad=True)
        upstream = rng.normal(size=(20, 3))
        (lhs @ w).backward(upstream)
        # The CSR twin cannot produce dX, so the dense path must run and
        # feed both parents.
        assert np.abs(lhs.grad - upstream @ w.data.T).max() < PARITY_TOL
        assert np.abs(w.grad - x.T @ upstream).max() < PARITY_TOL
