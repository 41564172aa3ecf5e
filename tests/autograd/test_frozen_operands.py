"""Binary arithmetic computes no gradient for an operand that is frozen.

``+ − * /`` route a parent's gradient only when that parent requires
grad; the constant side (an edge norm, a frozen bias, a loss constant) is
never unbroadcast. The gradient of the side that does require grad is
unchanged, bit for bit.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import tensor as tensor_module

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


@pytest.fixture
def unbroadcast_calls(monkeypatch):
    calls = []
    original = tensor_module._unbroadcast

    def counted(grad, shape):
        calls.append(shape)
        return original(grad, shape)

    monkeypatch.setattr(tensor_module, "_unbroadcast", counted)
    return calls


def operands(grad_side):
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=grad_side == "left")
    b = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=grad_side == "right")
    return a, b


def expected_grad(op, grad_side, a, b):
    """The closed-form gradient, in the engine's own arithmetic."""
    g = np.ones((3, 4))
    if grad_side == "left":
        return {"add": g, "sub": g, "mul": g * b, "div": g / b}[op]
    grad = {"add": g, "sub": -g, "mul": g * a, "div": -g * a / (b**2)}[op]
    return grad.sum(axis=0)


@pytest.mark.parametrize("grad_side", ["left", "right"])
@pytest.mark.parametrize("op", sorted(OPS))
def test_frozen_operand_gets_no_gradient_computation(unbroadcast_calls, op, grad_side):
    a, b = operands(grad_side)
    OPS[op](a, b).sum().backward()

    live = a if grad_side == "left" else b
    assert unbroadcast_calls == [live.shape]
    frozen = b if grad_side == "left" else a
    assert frozen.grad is None
    assert np.array_equal(live.grad, expected_grad(op, grad_side, a.data, b.data))


@pytest.mark.parametrize("op", sorted(OPS))
def test_both_operands_requiring_grad_still_get_both(unbroadcast_calls, op):
    a, b = operands("left")
    b.requires_grad = True
    OPS[op](a, b).sum().backward()
    assert unbroadcast_calls == [a.shape, b.shape]
    assert np.array_equal(a.grad, expected_grad(op, "left", a.data, b.data))
    assert np.array_equal(b.grad, expected_grad(op, "right", a.data, b.data))
