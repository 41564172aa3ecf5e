"""Property-based gradient verification with hypothesis.

Random expression trees over the core op set must always match central
finite differences — the strongest invariant a hand-written autograd
engine can offer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, log_softmax, softmax
from repro.autograd.grad_check import check_gradients

SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


def arrays(shape, seed, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 10_000))
def test_elementwise_chain_gradients(shape, seed):
    a = Tensor(arrays(shape, seed), requires_grad=True)
    b = Tensor(arrays(shape, seed + 1), requires_grad=True)
    check_gradients(lambda: ((a * b + a).tanh().sigmoid() * 2.0 - b).sum(), [a, b],
                    atol=1e-4, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), k=st.integers(1, 5),
       seed=st.integers(0, 10_000))
def test_matmul_gradients(n, m, k, seed):
    a = Tensor(arrays((n, m), seed), requires_grad=True)
    b = Tensor(arrays((m, k), seed + 1), requires_grad=True)
    check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b], atol=1e-4, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 10_000))
def test_broadcast_add_gradients(shape, seed):
    a = Tensor(arrays(shape, seed), requires_grad=True)
    b = Tensor(arrays((shape[1],), seed + 1), requires_grad=True)
    check_gradients(lambda: ((a + b) * (a - b)).sum(), [a, b], atol=1e-4, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), c=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_softmax_rows_always_normalized(n, c, seed):
    x = Tensor(arrays((n, c), seed, lo=-50, hi=50))
    out = softmax(x).numpy()
    assert np.allclose(out.sum(axis=-1), 1.0)
    assert (out >= 0).all()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), c=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_log_softmax_upper_bound(n, c, seed):
    x = Tensor(arrays((n, c), seed, lo=-20, hi=20))
    assert (log_softmax(x).numpy() <= 1e-12).all()


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 6), cols=st.integers(1, 4),
       n_idx=st.integers(1, 10), seed=st.integers(0, 10_000))
def test_gather_scatter_gradients(rows, cols, n_idx, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(arrays((rows, cols), seed), requires_grad=True)
    idx = rng.integers(0, rows, size=n_idx)
    out_idx = rng.integers(0, 3, size=n_idx)
    check_gradients(lambda: (a.gather_rows(idx).scatter_add(out_idx, 3) ** 2).sum(),
                    [a], atol=1e-4, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_sum_equals_manual(rows, cols, seed):
    data = arrays((rows, cols), seed)
    t = Tensor(data)
    assert t.sum().item() == np.sum(data)
    assert np.allclose(t.sum(axis=0).numpy(), data.sum(axis=0))
    assert np.allclose(t.mean(axis=1).numpy(), data.mean(axis=1))
