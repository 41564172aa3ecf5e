"""Global pooling layers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.grad_check import check_gradients
from repro.nn import global_max_pool, global_mean_pool, global_sum_pool


@pytest.fixture
def batch_setup():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
               requires_grad=True)
    batch = np.array([0, 0, 1, 1])
    return x, batch


class TestSumPool:
    def test_values(self, batch_setup):
        x, batch = batch_setup
        out = global_sum_pool(x, batch, 2).numpy()
        assert np.allclose(out, [[4.0, 6.0], [12.0, 14.0]])

    def test_grad(self, batch_setup):
        x, batch = batch_setup
        check_gradients(lambda: (global_sum_pool(x, batch, 2) ** 2).sum(), [x])


class TestMeanPool:
    def test_values(self, batch_setup):
        x, batch = batch_setup
        out = global_mean_pool(x, batch, 2).numpy()
        assert np.allclose(out, [[2.0, 3.0], [6.0, 7.0]])

    def test_unequal_sizes(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = global_mean_pool(x, np.array([0, 1, 1]), 2).numpy()
        assert np.allclose(out, [[2.0], [5.0]])

    def test_grad(self, batch_setup):
        x, batch = batch_setup
        check_gradients(lambda: (global_mean_pool(x, batch, 2) ** 2).sum(), [x])

    def test_empty_graph_slot_zero(self):
        x = Tensor(np.array([[1.0]]))
        out = global_mean_pool(x, np.array([0]), 3).numpy()
        assert np.allclose(out[1:], 0.0)


class TestMaxPool:
    def test_values(self, batch_setup):
        x, batch = batch_setup
        out = global_max_pool(x, batch, 2).numpy()
        assert np.allclose(out, [[3.0, 4.0], [7.0, 8.0]])

    def test_grad_unique_max(self, batch_setup):
        x, batch = batch_setup
        check_gradients(lambda: (global_max_pool(x, batch, 2) ** 2).sum(), [x])

    def test_negative_values(self):
        x = Tensor(np.array([[-5.0], [-2.0]]))
        out = global_max_pool(x, np.array([0, 0]), 1).numpy()
        assert out[0, 0] == -2.0
