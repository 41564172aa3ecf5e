"""Binary arithmetic computes no gradient for an operand that is frozen.

``+ − * /`` route a parent's gradient only when that parent requires
grad; the constant side (an edge norm, a frozen bias, a loss constant) is
never unbroadcast. The gradient of the side that does require grad is
unchanged, bit for bit.

A matmul by a frozen weight back-propagates through a contiguous copy of
its transpose, so a row of the input gradient does not depend on how many
rows share the GEMM — the invariant a row-trimmed forward relies on.
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


#: The frozen weights a row-trimmed forward back-propagates through: the
#: zoo's 32-wide hidden layers (GCN, GIN's MLP, GAT's 8×4 heads) and class
#: heads, and the 16- and 8-wide test models.
WEIGHT_SHAPES = [(32, 32), (32, 7), (32, 4), (32, 2), (16, 16), (16, 4), (8, 8), (8, 3)]


@pytest.mark.parametrize("shape", WEIGHT_SHAPES)
def test_frozen_weight_matmul_rows_do_not_depend_on_the_row_count(shape):
    """Each row's input gradient has the same bits at every row count, and
    so does the forward product at a hidden width (``K == M``). A class
    width may not: the last layer of a trimmed GNN keeps every row."""
    rng = np.random.default_rng(7)
    weight = Tensor(rng.normal(size=shape))
    x = rng.normal(size=(600, shape[0]))
    upstream = rng.normal(size=(600, shape[1]))
    full = Tensor(x, requires_grad=True)
    out = full @ weight
    out.backward(upstream)
    for rows in range(2, 601):
        part = Tensor(x[:rows], requires_grad=True)
        part_out = part @ weight
        part_out.backward(upstream[:rows])
        assert np.array_equal(part.grad, full.grad[:rows])
        if shape[0] == shape[1]:
            assert np.array_equal(part_out.numpy(), out.numpy()[:rows])


@pytest.mark.parametrize("shape", [shape for shape in WEIGHT_SHAPES if shape[0] == shape[1]])
def test_hidden_width_matmul_rows_do_not_depend_on_the_stacked_row_count(shape):
    """A batched masked forward flattens ``(rows, B, K)`` states into one
    GEMM of ``rows × B`` rows; a trimmed one runs fewer rows than the
    untrimmed. Each row of the hidden-width product has the same bits at
    every such count: ``rows`` up to 125 (a 121-node BA-Shapes context)
    times ``B = 128`` coalitions, about 16,000 rows."""
    rng = np.random.default_rng(9)
    weight = Tensor(rng.normal(size=shape))
    stack = 128
    x = rng.normal(size=(125 * stack, shape[0]))
    out = (Tensor(x) @ weight).numpy()
    for rows in range(2, 126):
        part = (Tensor(x[:rows * stack]) @ weight).numpy()
        assert np.array_equal(part, out[:rows * stack])


def test_trainable_weight_matmul_keeps_the_transposed_view():
    rng = np.random.default_rng(8)
    weight = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
    x = Tensor(rng.normal(size=(20, 32)), requires_grad=True)
    upstream = rng.normal(size=(20, 32))
    (x @ weight).backward(upstream)
    assert np.array_equal(x.grad, upstream @ weight.data.T)
