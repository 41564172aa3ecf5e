"""The unmasked logistic function keeps the bits of the two-branch form.

``_sigmoid`` computes ``max(t, c ≥ 0) / (1 + t)`` with ``t = exp(−|c|)``
on ``c = clip(x, ±500)``. The form it replaced, kept here as the oracle,
took ``e / (1 + e)`` below zero and overwrote the rest with
``1 / (1 + exp(−c))`` through a masked divide. Every value must have the
same bytes, except that any NaN must stay a NaN.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd.tensor import _sigmoid

SPECIAL = np.array([0.0, -0.0, 500.0, -500.0, 501.0, -501.0, np.inf, -np.inf, np.nan,
                    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, -1e-300,
                    36.7, -36.7, 709.0, -709.0, 745.2, -745.2, 1e-17, -1e-17])


def two_branch_sigmoid(x):
    clipped = np.minimum(np.maximum(x, -500.0), 500.0)
    e = np.exp(clipped)
    out = np.divide(e, 1.0 + e, out=np.empty(clipped.shape, clipped.dtype))
    return np.divide(1.0, 1.0 + np.exp(-clipped), out=out, where=clipped >= 0)


def assert_same_bytes(mine, oracle):
    mine, oracle = np.asarray(mine), np.asarray(oracle)
    assert mine.shape == oracle.shape
    nan = np.isnan(oracle)
    assert np.array_equal(np.isnan(mine), nan)
    assert mine[~nan].tobytes() == oracle[~nan].tobytes()


def test_special_values():
    assert_same_bytes(_sigmoid(SPECIAL), two_branch_sigmoid(SPECIAL))
    assert _sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]


def test_into_a_dirty_buffer_and_on_a_zero_dim_value():
    out = np.full(SPECIAL.shape, -7.0)
    assert _sigmoid(SPECIAL, out) is out
    assert_same_bytes(out, two_branch_sigmoid(SPECIAL))
    for value in (np.float64(-3.25), np.array(2.5)):
        assert_same_bytes(_sigmoid(value), two_branch_sigmoid(np.asarray(value)))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=True,
                                                                 allow_infinity=True)))
def test_any_floats(x):
    assert_same_bytes(_sigmoid(x), two_branch_sigmoid(x))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-3, 1.0, 30.0, 400.0, 1e4]),
       size=st.integers(1, 5000))
def test_normal_draws_at_five_scales(seed, scale, size):
    x = np.random.default_rng(seed).normal(size=size) * scale
    assert_same_bytes(_sigmoid(x), two_branch_sigmoid(x))
