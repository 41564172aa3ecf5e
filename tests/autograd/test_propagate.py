"""The fused message-passing primitive ``repro.autograd.propagate``.

The oracle is the composite chain it replaces — ``gather_rows → × coeff
→ × mask → scatter_add`` — and every check is bit for bit: the forward
and each parent's gradient must be ``array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, propagate
from repro.autograd.grad_check import check_gradients
from repro.errors import ShapeError
from repro.sparse import GraphSparseCache


def composite(h, cache, coeff, mask):
    """The four-node chain ``propagate`` fuses."""
    messages = h.gather_rows(cache.src, plan=cache.src_plan)
    if coeff is not None:
        messages = messages * coeff
    if mask is not None:
        messages = messages * mask.reshape((mask.shape[0],) + (1,) * (h.ndim - 1))
    return messages.scatter_add(cache.dst, cache.num_nodes, plan=cache.dst_plan)


@st.composite
def message_graphs(draw):
    """A sparse cache over a graph the scatter must survive.

    Duplicate edges, nodes with no in-edges, isolated nodes, no data edges
    at all and a single node all occur; half the cases keep only a random
    subset of layer edges (a flow-trimmed layer).
    """
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 14))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    if m and draw(st.booleans()):
        repeat = rng.integers(0, m, size=draw(st.integers(1, 3)))
        src, dst = np.concatenate([src, src[repeat]]), np.concatenate([dst, dst[repeat]])
    if draw(st.booleans()):
        lonely = rng.integers(0, n)
        keep = (src != lonely) & (dst != lonely)
        src, dst = src[keep], dst[keep]
    cache = GraphSparseCache(np.stack([src, dst]).astype(np.int64).reshape(2, -1), n)
    if draw(st.booleans()):
        width = cache.src.shape[0]
        ids = np.flatnonzero(rng.random(width) < 0.6)
        cache = cache.restrict(ids)
    return cache, seed


def leaves(cache, heads, coeff_mode, seed):
    """Fresh leaf tensors; two calls give equal data and separate grads."""
    rng = np.random.default_rng(seed)
    n, a = cache.num_nodes, cache.src.shape[0]
    node_shape = (n, 3) if heads is None else (n, heads, 3)
    coeff_shape = (a, 1) if heads is None else (a, heads, 1)
    h = Tensor(rng.normal(size=node_shape), requires_grad=True)
    coeff = None
    if coeff_mode != "none":
        coeff = Tensor(rng.uniform(0.1, 1.0, size=coeff_shape),
                       requires_grad=coeff_mode == "grad")
    mask = Tensor(rng.uniform(0, 1, size=a), requires_grad=True)
    return h, coeff, mask


@settings(max_examples=60, deadline=None)
@given(case=message_graphs(), heads=st.sampled_from([None, 2]),
       coeff_mode=st.sampled_from(["none", "frozen", "grad"]), masked=st.booleans())
def test_propagate_matches_the_composite_chain_bit_for_bit(case, heads, coeff_mode, masked):
    cache, seed = case
    fused_in = leaves(cache, heads, coeff_mode, seed)
    chain_in = leaves(cache, heads, coeff_mode, seed)
    if not masked:
        fused_in, chain_in = fused_in[:2] + (None,), chain_in[:2] + (None,)

    fused = propagate(fused_in[0], cache, fused_in[1], fused_in[2])
    chain = composite(chain_in[0], cache, chain_in[1], chain_in[2])
    assert np.array_equal(fused.numpy(), chain.numpy())

    weights = np.random.default_rng(seed + 1).normal(size=fused.shape)
    (fused * Tensor(weights)).sum().backward()
    (chain * Tensor(weights)).sum().backward()
    for mine, theirs in zip(fused_in, chain_in):
        if theirs is None or not theirs.requires_grad:
            continue
        assert mine.grad.shape == theirs.grad.shape
        assert np.array_equal(mine.grad, theirs.grad)


def small_cache():
    edge_index = np.array([[0, 1, 1, 2, 0], [1, 2, 0, 0, 1]])  # (0, 1) twice
    return GraphSparseCache(edge_index, 4)                       # node 3 isolated


@pytest.mark.parametrize("heads", [None, 2])
def test_propagate_gradients_match_finite_differences(heads):
    cache = small_cache()
    h, coeff, mask = leaves(cache, heads, "grad", seed=7)
    weights = Tensor(np.random.default_rng(8).normal(size=h.shape))
    check_gradients(lambda: (propagate(h, cache, coeff, mask) * weights).sum(),
                    [h, coeff, mask])


def test_column_mask_gets_its_gradient_in_its_own_shape():
    cache = small_cache()
    h, coeff, mask = leaves(cache, None, "frozen", seed=3)
    column = Tensor(mask.data[:, None], requires_grad=True)
    propagate(h, cache, coeff, column).sum().backward()
    propagate(h, cache, coeff, mask).sum().backward()
    assert column.grad.shape == column.shape
    assert np.array_equal(column.grad[:, 0], mask.grad)


@pytest.mark.parametrize("width", [8, 10])
def test_wrong_length_mask_raises(width):
    cache = small_cache()                              # 5 data edges + 4 self-loops
    h, coeff, _ = leaves(cache, None, "frozen", seed=0)
    with pytest.raises(ShapeError, match="edge mask"):
        propagate(h, cache, coeff, Tensor(np.ones(width)))
