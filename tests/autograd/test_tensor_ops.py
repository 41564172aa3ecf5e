"""Per-operation gradient checks and shape semantics for the Tensor type."""

import numpy as np
import pytest

from repro.autograd import Tensor, concat
from repro.autograd.grad_check import check_gradients
from repro.errors import AutogradError, ShapeError


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestArithmetic:
    def test_add_grad(self):
        a, b = t((3, 4)), t((3, 4), seed=1)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast_grad(self):
        a, b = t((3, 4)), t((4,), seed=1)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_add_scalar(self):
        a = t((2, 2))
        out = a + 3.0
        assert np.allclose(out.numpy(), a.numpy() + 3.0)

    def test_radd(self):
        a = t((2,))
        assert np.allclose((1.0 + a).numpy(), a.numpy() + 1.0)

    def test_sub_grad(self):
        a, b = t((3,)), t((3,), seed=1)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_rsub(self):
        a = t((3,))
        assert np.allclose((2.0 - a).numpy(), 2.0 - a.numpy())

    def test_mul_grad(self):
        a, b = t((2, 3)), t((2, 3), seed=1)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_column(self):
        a, b = t((4, 3)), t((4, 1), seed=1)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div_grad(self):
        a = t((3, 2))
        b = Tensor(np.random.default_rng(1).uniform(0.5, 2.0, (3, 2)), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_rtruediv(self):
        b = Tensor(np.array([1.0, 2.0, 4.0]), requires_grad=True)
        check_gradients(lambda: (1.0 / b).sum(), [b])

    def test_neg_grad(self):
        a = t((5,))
        check_gradients(lambda: (-a).sum(), [a])

    def test_pow_grad(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 2.0, (4,)), requires_grad=True)
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_pow_tensor_exponent_rejected(self):
        a, b = t((2,)), t((2,))
        with pytest.raises(AutogradError):
            a ** b

    def test_matmul_grad(self):
        a, b = t((3, 4)), t((4, 2), seed=1)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_shape_error(self):
        a, b = t((3,)), t((3, 2))
        with pytest.raises(ShapeError):
            a @ b

    def test_numpy_defers_to_tensor(self):
        a = t((3,))
        out = np.ones(3) * a
        assert isinstance(out, Tensor)


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "softplus", "abs"])
    def test_unary_grads(self, op):
        a = t((3, 3), scale=0.8)
        check_gradients(lambda: getattr(a, op)().sum(), [a])

    def test_log_grad(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 3.0, (4,)), requires_grad=True)
        check_gradients(lambda: a.log().sum(), [a])

    def test_sqrt_grad(self):
        a = Tensor(np.random.default_rng(0).uniform(0.5, 3.0, (4,)), requires_grad=True)
        check_gradients(lambda: a.sqrt().sum(), [a])

    def test_relu_values(self):
        a = Tensor(np.array([-1.0, 0.0, 2.0]))
        assert np.allclose(a.relu().numpy(), [0.0, 0.0, 2.0])

    def test_relu_grad_away_from_kink(self):
        a = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]), requires_grad=True)
        check_gradients(lambda: a.relu().sum(), [a])

    def test_leaky_relu_values(self):
        a = Tensor(np.array([-1.0, 2.0]))
        assert np.allclose(a.leaky_relu(0.1).numpy(), [-0.1, 2.0])

    def test_leaky_relu_grad(self):
        a = Tensor(np.array([-2.0, -0.5, 0.7, 3.0]), requires_grad=True)
        check_gradients(lambda: a.leaky_relu(0.2).sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor(np.array([-1000.0, 1000.0]))
        out = a.sigmoid().numpy()
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-100 and out[1] == pytest.approx(1.0)

    def test_softplus_matches_reference(self):
        a = Tensor(np.array([-3.0, 0.0, 3.0]))
        assert np.allclose(a.softplus().numpy(), np.log1p(np.exp([-3.0, 0.0, 3.0])))

    def test_clip_grad_masks_outside(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all_grad(self):
        a = t((3, 4))
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis_grad(self):
        a = t((3, 4))
        check_gradients(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims_shape(self):
        a = t((3, 4))
        assert a.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_value(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.mean().item() == pytest.approx(2.5)

    def test_mean_axis_grad(self):
        a = t((4, 5))
        check_gradients(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_mean_tuple_axis(self):
        a = t((2, 3, 4))
        assert a.mean(axis=(0, 1)).shape == (4,)

    def test_max_value(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        assert np.allclose(a.max(axis=1).numpy(), [5.0, 3.0])

    def test_max_grad_unique(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        check_gradients(lambda: a.max(axis=1).sum(), [a])

    def test_max_grad_ties_split(self):
        a = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5]])


class TestShapes:
    def test_reshape_grad(self):
        a = t((2, 6))
        check_gradients(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_reshape_tuple_arg(self):
        a = t((2, 6))
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_flatten(self):
        a = t((2, 3))
        assert a.flatten().shape == (6,)

    def test_transpose_grad(self):
        a = t((2, 3))
        check_gradients(lambda: (a.T ** 2).sum(), [a])

    def test_transpose_axes_grad(self):
        a = t((2, 3, 4))
        check_gradients(lambda: (a.transpose((2, 0, 1)) ** 2).sum(), [a])

    def test_getitem_row(self):
        a = t((4, 3))
        check_gradients(lambda: (a[1] ** 2).sum(), [a])

    def test_getitem_fancy(self):
        a = t((5, 2))
        idx = np.array([0, 0, 3])
        check_gradients(lambda: (a[idx] ** 2).sum(), [a])

    def test_getitem_2d_index(self):
        a = t((3, 4))
        check_gradients(lambda: a[np.arange(3), np.array([0, 2, 1])].sum(), [a])


class TestGatherScatter:
    def test_gather_rows_grad_with_repeats(self):
        a = t((4, 3))
        idx = np.array([0, 2, 2, 1, 0])
        check_gradients(lambda: (a.gather_rows(idx) ** 2).sum(), [a])

    def test_scatter_add_values(self):
        a = Tensor(np.ones((4, 2)))
        out = a.scatter_add(np.array([0, 0, 1, 3]), 4)
        assert np.allclose(out.numpy(), [[2, 2], [1, 1], [0, 0], [1, 1]])

    def test_scatter_add_grad(self):
        a = t((5, 2))
        idx = np.array([0, 1, 1, 2, 0])
        check_gradients(lambda: (a.scatter_add(idx, 3) ** 2).sum(), [a])

    def test_scatter_add_index_mismatch(self):
        a = t((4, 2))
        with pytest.raises(ShapeError):
            a.scatter_add(np.array([0, 1]), 3)

    def test_gather_then_scatter_roundtrip(self):
        a = t((3, 2))
        idx = np.arange(3)
        out = a.gather_rows(idx).scatter_add(idx, 3)
        assert np.allclose(out.numpy(), a.numpy())


class TestCombinators:
    def test_concat_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((3, 2)))
        assert concat([a, b]).shape == (5, 2)

    def test_concat_grad(self):
        a, b = t((2, 3)), t((4, 3), seed=1)
        check_gradients(lambda: (concat([a, b]) ** 2).sum(), [a, b])

    def test_concat_axis1_grad(self):
        a, b = t((2, 3)), t((2, 2), seed=1)
        check_gradients(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])



class TestMisc:
    def test_item_scalar(self):
        assert Tensor(np.array(3.0)).item() == 3.0

    def test_item_nonscalar_raises(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).item()

    def test_comparisons_return_numpy(self):
        a = Tensor(np.array([1.0, 3.0]))
        assert (a > 2.0).dtype == bool
        assert (a < Tensor(np.array([2.0, 2.0]))).tolist() == [True, False]

    def test_detach_cuts_tape(self):
        a = t((2,))
        d = (a * 2).detach()
        assert not d.requires_grad

    def test_copy_is_deep(self):
        a = Tensor(np.ones(2))
        c = a.copy()
        c.data[0] = 5.0
        assert a.numpy()[0] == 1.0

    def test_len_and_repr(self):
        a = Tensor(np.ones((4, 2)), name="weights")
        assert len(a) == 4
        assert "weights" in repr(a)
