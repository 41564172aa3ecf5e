"""Optimizer mechanics and convergence."""

import numpy as np
import pytest

from repro.autograd import Adam, Linear, Tensor
from repro.errors import AutogradError


def quadratic_problem():
    """min (x - 3)^2, solution x = 3."""
    x = Tensor(np.array([0.0]), requires_grad=True)

    def loss():
        return ((x - 3.0) ** 2).sum()

    return x, loss


class TestAdam:
    def test_converges_on_quadratic(self):
        x, loss = quadratic_problem()
        opt = Adam([x], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            loss().backward()
            opt.step()
        assert x.numpy()[0] == pytest.approx(3.0, abs=1e-2)

    def test_fits_linear_regression(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 1, rng=0)
        X = rng.normal(size=(128, 4))
        w_true = np.array([[1.0], [-1.0], [0.5], [2.0]])
        y = X @ w_true + 0.3
        opt = Adam(lin.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            ((lin(Tensor(X)) - Tensor(y)) ** 2).mean().backward()
            opt.step()
        assert np.allclose(lin.weight.numpy(), w_true, atol=1e-2)
        assert lin.bias.numpy()[0] == pytest.approx(0.3, abs=1e-2)

    def test_bias_correction_first_step(self):
        # With bias correction, the first Adam step ≈ lr * sign(grad).
        x = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.zero_grad()
        (x * 5.0).sum().backward()
        opt.step()
        assert x.numpy()[0] == pytest.approx(-0.1, abs=1e-6)

    def test_weight_decay(self):
        x = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam([x], lr=0.5, weight_decay=1.0)
        for _ in range(100):
            opt.zero_grad()
            (x * 0.0).sum().backward()
            opt.step()
        assert abs(x.numpy()[0]) < 1.0

    def test_skips_params_without_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward happened
        assert x.numpy()[0] == 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(AutogradError):
            Adam([], lr=0.1)

    def test_zero_grad_resets(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        (x * 2).sum().backward()
        opt.zero_grad()
        assert x.grad is None

    def test_flat_buffer_matches_a_per_parameter_update(self):
        """Adam steps every parameter in one flat buffer; its ops are
        elementwise, so each parameter gets the bits of the per-parameter
        loop below. A parameter without a gradient keeps its data and
        moments, and a reassigned ``.data`` is read back in."""
        lr, beta1, beta2, eps, decay = 0.05, 0.9, 0.999, 1e-8, 0.1
        rng = np.random.default_rng(3)
        shapes = [(3, 5), (7,), (2, 2, 3)]
        values = [rng.normal(size=shape) for shape in shapes]
        flat = [Tensor(v.copy(), requires_grad=True) for v in values]
        opt = Adam(flat, lr=lr, weight_decay=decay)
        data = [v.copy() for v in values]
        moments = [(np.zeros(shape), np.zeros(shape)) for shape in shapes]
        for t in range(1, 6):
            if t == 3:                           # an outside write between steps
                flat[0].data = np.full(shapes[0], 0.5)
                data[0] = np.full(shapes[0], 0.5)
            skip = t % len(shapes)
            grads = [rng.normal(size=shape) for shape in shapes]
            for i, (param, grad) in enumerate(zip(flat, grads)):
                param.grad = None if i == skip else grad
            opt.step()
            for i, ((m, v), grad) in enumerate(zip(moments, grads)):
                if i == skip:
                    continue
                grad = grad + decay * data[i]
                m *= beta1
                m += (1.0 - beta1) * grad
                v *= beta2
                v += (1.0 - beta2) * grad * grad
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for param, expected in zip(flat, data):
                assert param.data.tobytes() == expected.tobytes()
