"""Tape mechanics: accumulation, reuse, no_grad, retain_grad, deep chains."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import is_grad_enabled
from repro.errors import AutogradError


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        a = Tensor(np.ones(2))
        with pytest.raises(AutogradError):
            a.backward()
        with pytest.raises(AutogradError):
            a.sum().backward()  # inert tape

    def test_backward_nonscalar_needs_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (a * 2).backward()

    def test_backward_explicit_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).backward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(a.grad, [2.0, 4.0, 6.0])

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(np.ones(2), requires_grad=True)
        a.sum().backward()
        a.sum().backward()
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        a.sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_reuse_accumulates(self):
        # a used twice: gradient contributions must add.
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a * 3.0
        out.sum().backward()
        assert np.allclose(a.grad, [2 * 2.0 + 3.0])

    def test_shared_subexpression(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = a * 2
        out = (b + b).sum()
        out.backward()
        assert np.allclose(a.grad, [4.0, 4.0])

    def test_long_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(5000):
            x = x + 1.0
        x.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_constant_branch_gets_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        (a * c).sum().backward()
        assert c.grad is None


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()

    def test_tensor_created_inside_no_grad_is_inert(self):
        with no_grad():
            a = Tensor(np.ones(2), requires_grad=True)
        assert not a.requires_grad


class TestRetainGrad:
    def test_interior_grad_absent_by_default(self):
        a = Tensor(np.ones(2), requires_grad=True)
        mid = a * 2
        mid.sum().backward()
        assert mid.grad is None

    def test_retain_grad_populates_interior(self):
        a = Tensor(np.ones(2), requires_grad=True)
        mid = (a * 2).retain_grad()
        (mid * 3).sum().backward()
        assert np.allclose(mid.grad, [3.0, 3.0])
        assert np.allclose(a.grad, [6.0, 6.0])

    def test_retain_grad_returns_self(self):
        a = Tensor(np.ones(1), requires_grad=True)
        assert a.retain_grad() is a
