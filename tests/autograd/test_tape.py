"""Record, replay and the compiled backward plan (``repro.autograd.Tape``).

Every op that can land on a tape is built inside a recording, its leaves
get new values, and the tape is replayed: the output and every leaf
gradient must be ``array_equal`` to a fresh build on the new values.
Recording an op that has no forward thunk raises.

Compiled ≡ eager: the same ops also run through the plan
``Tape.compile`` caches on their loss, across a replay, and every leaf
gradient must have the bits of :func:`reference_backward` — the
dict-and-DFS backward the plan replaced, kept here as the oracle — on a
fresh build. So must fan-out (accumulation order), retained interior
nodes, non-scalar upstream gradients and repeated ``backward()`` calls.

Buffers: a compiled tape replays through bound steps over buffers it
allocated once. Over several replays on leaves changed in place, every
node's value must keep the bytes of the same node in a fresh build — two
nodes writing one buffer would leave the earlier one holding the later
one's values — and every node's ``.data``, bound gradient and the leaves'
``.data`` must keep their addresses. A leaf whose ``.data`` is replaced
instead makes the next replay bind the plans again.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import SparseLeaf, Tape, Tensor, concat, propagate
from repro.autograd import functional as F
from repro.autograd import tensor as T
from repro.errors import AutogradError
from repro.nn.pooling import global_max_pool, global_mean_pool, global_sum_pool
from repro.sparse import GraphSparseCache

# A duplicate edge (0 → 1 twice) and an isolated node (4).
CACHE = GraphSparseCache(np.array([[0, 1, 1, 2, 0, 3], [1, 2, 0, 0, 1, 2]]), 5)
LAYER_EDGES = CACHE.src.shape[0]
GRAPH_OF_NODE = np.array([0, 0, 1, 2, 2])     # three pooled graphs


def leaf(shape, kind="any"):
    return (shape, kind)


# name → (leaf specs, op). Kinds: "any" (normal draws), "pos"
# (bounded away from 0), "frozen" (does not require grad: a constant of
# the tape, equal in the recording and the fresh build).
OPS = {
    "__add__": ([leaf((3, 4)), leaf((4,))], lambda a, b: a + b),
    "__radd__": ([leaf((3, 4))], lambda a: 2.0 + a),
    "__sub__": ([leaf((3, 4)), leaf((3, 1))], lambda a, b: a - b),
    "__rsub__": ([leaf((3, 4))], lambda a: 1.0 - a),
    "__mul__": ([leaf((3, 4)), leaf((3, 4), "frozen")], lambda a, b: a * b),
    "__rmul__": ([leaf((3, 4))], lambda a: 0.5 * a),
    "__truediv__": ([leaf((3, 4)), leaf((4,), "pos")], lambda a, b: a / b),
    "__rtruediv__": ([leaf((3, 4), "pos")], lambda a: 1.0 / a),
    "__neg__": ([leaf((3, 4))], lambda a: -a),
    "__pow__": ([leaf((3, 4))], lambda a: a**3),
    "__matmul__": ([leaf((3, 4)), leaf((4, 2))], lambda a, b: a @ b),
    "__matmul__[stacked]": ([leaf((3, 2, 4)), leaf((4, 2))], lambda a, b: a @ b),
    "__matmul__[sparse]": ([leaf((5, 2))], lambda b: Tensor(CACHE.adj_norm.toarray())
                           .annotate_sparse(CACHE.adj_norm, CACHE.adj_norm_t) @ b),
    "SparseLeaf": ([leaf((5, 2))], lambda b: SparseLeaf(CACHE.adj_norm, CACHE.adj_norm_t) @ b),
    "__getitem__": ([leaf((3, 4))], lambda a: a[np.array([0, 2, 2]), 1:3]),
    # Leading ints then an array: run as a view, then the array part.
    "__getitem__[split]": ([leaf((2, 3, 4))], lambda a: a[1, np.array([0, 2])]),
    # A slice between them: numpy puts the indexed axis first, so no split.
    "__getitem__[apart]": ([leaf((2, 3, 4))], lambda a: a[0, :, np.array([1, 3])]),
    "exp": ([leaf((3, 4))], lambda a: a.exp()),
    "log": ([leaf((3, 4), "pos")], lambda a: a.log()),
    "sqrt": ([leaf((3, 4), "pos")], lambda a: a.sqrt()),
    "tanh": ([leaf((3, 4))], lambda a: a.tanh()),
    "sigmoid": ([leaf((3, 4))], lambda a: a.sigmoid()),
    "relu": ([leaf((3, 4))], lambda a: a.relu()),
    "leaky_relu": ([leaf((3, 4))], lambda a: a.leaky_relu(0.1)),
    "softplus": ([leaf((3, 4))], lambda a: a.softplus()),
    "abs": ([leaf((3, 4))], lambda a: a.abs()),
    "clip": ([leaf((3, 4))], lambda a: a.clip(-0.5, 0.5)),
    "sum": ([leaf((3, 4))], lambda a: a.sum()),
    "sum[axis]": ([leaf((3, 4))], lambda a: a.sum(axis=0)),
    "sum[keepdims]": ([leaf((3, 4))], lambda a: a.sum(axis=1, keepdims=True)),
    "mean": ([leaf((3, 4))], lambda a: a.mean(axis=(0, 1))),
    "max": ([leaf((3, 4))], lambda a: a.max(axis=1)),
    "max[all]": ([leaf((3, 4))], lambda a: a.max()),
    "reshape": ([leaf((3, 4))], lambda a: a.reshape(2, 6)),
    "flatten": ([leaf((3, 4))], lambda a: a.flatten()),
    "transpose": ([leaf((2, 3, 4))], lambda a: a.transpose((2, 0, 1))),
    "gather_rows": ([leaf((3, 4))], lambda a: a.gather_rows(np.array([0, 2, 2, 1]))),
    "scatter_add": ([leaf((3, 4))], lambda a: a.scatter_add(np.array([1, 0, 1]), 3)),
    "concat": ([leaf((3, 4)), leaf((2, 4))], lambda a, b: concat([a, b], axis=0)),
    "propagate": ([leaf((5, 3)), leaf((LAYER_EDGES, 1)), leaf((LAYER_EDGES,))],
                  lambda h, c, m: propagate(h, CACHE, c, m)),
    # A frozen layer 1: the pre-mask messages are computed once, off the tape.
    "propagate[frozen]": ([leaf((5, 3), "frozen"), leaf((LAYER_EDGES, 1), "frozen"),
                           leaf((LAYER_EDGES,))],
                          lambda h, c, m: propagate(h, CACHE, c, m)),
    "propagate[heads]": ([leaf((5, 2, 3), "frozen"), leaf((LAYER_EDGES, 2, 1)),
                          leaf((LAYER_EDGES, 1))],
                         lambda h, c, m: propagate(h, CACHE, c, m)),
    "spmm": ([leaf((5, 3))], lambda a: F.spmm(a, CACHE.adj_norm, CACHE.adj_norm_t)),
    "softmax": ([leaf((3, 4))], lambda a: F.softmax(a, axis=-1)),
    "log_softmax": ([leaf((3, 4))], lambda a: F.log_softmax(a, axis=-1)),
    "log_softmax[axis0]": ([leaf((3, 4))], lambda a: F.log_softmax(a, axis=0)),
    "segment_softmax": ([leaf((LAYER_EDGES, 2))],
                        lambda a: F.segment_softmax(a, CACHE.dst, 5, plan=CACHE.dst_plan)),
    "segment_softmax[weights]": (
        [leaf((LAYER_EDGES, 2))],
        lambda a: F.segment_softmax(a, CACHE.dst, 5, plan=CACHE.dst_plan,
                                    weights=np.arange(LAYER_EDGES) % 3 != 0)),
    "nll_loss": ([leaf((3, 4))], lambda a: F.nll_loss(a, np.array([0, 3, 3]))),
    "cross_entropy": ([leaf((3, 4))], lambda a: F.cross_entropy(a, np.array([1, 0, 3]))),
    "global_max_pool": ([leaf((5, 3))], lambda a: global_max_pool(a, GRAPH_OF_NODE, 3)),
    "global_mean_pool": ([leaf((5, 3))], lambda a: global_mean_pool(a, GRAPH_OF_NODE, 3)),
    "global_sum_pool": ([leaf((5, 3))], lambda a: global_sum_pool(a, GRAPH_OF_NODE, 3)),
}

# Tensor methods that build no tape node.
NOT_OPS = {"numpy", "item", "detach", "copy", "annotate_sparse", "retain_grad",
           "zero_grad", "backward"}


def draw(specs, rng, ties):
    values = []
    for shape, kind in specs:
        value = rng.normal(size=shape)
        if ties:
            value = np.round(value * 2) / 2     # repeated maxima, exact zeros
        if kind == "pos":
            value = np.abs(value) + 0.5
        values.append(value)
    return values


def build(name, values):
    """``(leaves, out, loss)``: the op on fresh leaves, reduced to a scalar."""
    specs, op = OPS[name]
    leaves = [Tensor(v, requires_grad=kind != "frozen") for v, (_, kind) in zip(values, specs)]
    out = op(*leaves)
    weights = np.random.default_rng(len(out.shape)).normal(size=out.shape)
    return leaves, out, (out * Tensor(weights)).sum()


def test_every_op_is_covered():
    methods = {name for name, value in vars(Tensor).items()
               if callable(value) and not name.startswith("_")} - NOT_OPS
    functions = set(F.__all__) | set(T.__all__) - {"Tensor", "Tape", "as_tensor", "no_grad"}
    covered = {name.split("[")[0] for name in OPS}
    assert methods | functions <= covered


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), ties=st.booleans())
def test_replay_equals_a_fresh_build(name, seed, ties):
    specs = OPS[name][0]
    rng = np.random.default_rng(seed)
    first, second = draw(specs, rng, ties), draw(specs, rng, ties)
    # Frozen leaves are constants of the tape: they keep their values.
    second = [b if kind != "frozen" else a for a, b, (_, kind) in zip(first, second, specs)]

    with Tape() as tape:
        leaves, out, loss = build(name, first)
    assert len(tape) >= 3                      # the op, the weighting, the sum
    loss.backward()
    for leaf_, value in zip(leaves, second):
        leaf_.data = value
        leaf_.zero_grad()
    tape.replay()
    loss.backward()

    fresh_leaves, fresh_out, fresh_loss = build(name, second)
    fresh_loss.backward()
    # A segment with every row removed has a 0/0 gradient: NaN in both.
    assert np.array_equal(out.data, fresh_out.data)
    assert np.array_equal(loss.data, fresh_loss.data)
    for mine, theirs in zip(leaves, fresh_leaves):
        if theirs.requires_grad:
            assert np.array_equal(mine.grad, theirs.grad, equal_nan=True)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), ties=st.booleans())
def test_compiled_replays_equal_fresh_builds_node_for_node(name, seed, ties):
    specs = OPS[name][0]
    rng = np.random.default_rng(seed)
    values = draw(specs, rng, ties)
    with Tape() as tape:
        leaves, _, loss = build(name, values)
    plan = tape.compile(loss, [leaf_ for leaf_ in leaves if leaf_.requires_grad])
    loss.backward()
    addresses = [node.data.ctypes.data for node in tape.nodes + leaves]
    grads = [grad.ctypes.data for _, grad in plan.grads]
    for _ in range(3):
        fresh_values = draw(specs, rng, ties)
        values = [b if kind != "frozen" else a
                  for a, b, (_, kind) in zip(values, fresh_values, specs)]
        for leaf_, value in zip(leaves, values):
            leaf_.data[...] = value                   # in place: the plans stay bound
            leaf_.zero_grad()
        tape.replay()
        loss.backward()

        with Tape() as fresh_tape:
            fresh_leaves, _, fresh_loss = build(name, values)
        fresh_loss.backward()
        assert len(fresh_tape) == len(tape)
        for mine, theirs in zip(tape.nodes, fresh_tape.nodes):
            assert bits(mine.data) == bits(theirs.data)
        assert_same_grads(leaves, fresh_leaves)
        assert [node.data.ctypes.data for node in tape.nodes + leaves] == addresses
        assert [grad.ctypes.data for _, grad in plan.grads] == grads


def test_recording_an_op_without_a_thunk_raises():
    x = Tensor(np.ones(3), requires_grad=True)

    def backward(g):
        return (2.0 * g,)

    assert Tensor._make(x.data * 2.0, (x,), backward).requires_grad   # eager: fine
    with Tape(), pytest.raises(AutogradError, match="forward thunk"):
        Tensor._make(x.data * 2.0, (x,), backward)
    frozen = Tensor(np.ones(3))
    with Tape() as tape:                                  # off the tape: fine
        Tensor._make(frozen.data * 2.0, (frozen,), backward)
    assert len(tape) == 0


def test_frozen_work_stays_off_the_tape():
    frozen = Tensor(np.arange(4.0))
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        scale = (frozen * 2.0).exp()               # all parents frozen
        out = (scale * x).sum()
    assert len(tape) == 2
    x.data = np.full(4, 3.0)
    tape.replay()
    assert out.item() == float((np.exp(np.arange(4.0) * 2.0) * 3.0).sum())


def test_tapes_do_not_nest():
    with Tape(), pytest.raises(AutogradError, match="already recording"):
        with Tape():
            pass
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:                                  # the outer one closed
        x.exp()
    assert len(tape) == 1


def reference_backward(root, seed):
    """The dict-and-DFS backward :class:`~repro.autograd.tensor.BackwardPlan`
    replaced: in reverse DFS post-order, each node's gradient is popped
    from a dict and every contribution to a parent is materialized (an
    index adjoint's zero array and ``np.add.at`` included) and added out
    of place."""
    grads = {root: seed}
    for node in reversed(root._topological_order()):
        grad = grads.pop(node, None)
        if grad is None:
            continue
        if node._backward is None or node._retain:
            node._accumulate(grad)
        if node._backward is None:
            continue
        for parent, contribution in zip(node._parents, node._backward(T.EAGER, grad)):
            if not parent.requires_grad:
                continue
            reduction = T._unbroadcast(node.shape, parent.shape) if node._bcast else None
            if reduction is not None:
                contribution = T._reduce(T.EAGER, contribution, reduction)
            grads[parent] = grads[parent] + contribution if parent in grads else contribution


def bits(array):
    """The exact bits: ``array_equal`` does not see the sign of a zero."""
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def assert_same_grads(mine, theirs):
    for a, b in zip(mine, theirs):
        if b.requires_grad:
            assert bits(a.grad) == bits(b.grad)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), ties=st.booleans())
def test_compiled_plan_equals_the_eager_reference(name, seed, ties):
    specs = OPS[name][0]
    rng = np.random.default_rng(seed)
    first, second = draw(specs, rng, ties), draw(specs, rng, ties)
    second = [b if kind != "frozen" else a for a, b, (_, kind) in zip(first, second, specs)]

    with Tape() as tape:
        leaves, _, loss = build(name, first)
    plan = tape.compile(loss, [leaf_ for leaf_ in leaves if leaf_.requires_grad])
    assert 0 < len(plan) <= len(tape)
    loss.backward()
    for leaf_, value in zip(leaves, second):
        leaf_.data = value
        leaf_.zero_grad()
    tape.replay()
    loss.backward()

    fresh_leaves, _, fresh_loss = build(name, second)
    reference_backward(fresh_loss, np.ones(()))
    assert_same_grads(leaves, fresh_leaves)


def fan_out(a, w, b):
    """Nodes whose slots take many contributions, in a fixed order: ``y``
    from dense products, itself twice, overlapping indices and slices;
    ``u`` two -0.0 gradients (``· 0.0`` under a negation) and then an
    index; ``y`` and ``c`` one array shared by a sum, then an index each."""
    y = a.tanh()
    u = b.exp()
    c = a * w
    ids = np.array([0, 2, 3])
    terms = [(y * w).sum(), -(y[1, ids] * 2.0).sum(), (y * y).sum(), y[0].sum(),
             (y[:, 1:3] * w[:, 1:3]).sum(), (y[1, np.array([2, 3])]).sum(),
             -(u * 0.0).sum(), -(u * 0.0).sum(), u[1, ids].sum(),
             (y + c).sum(), c[0, ids].sum(), y[2, ids].sum()]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def test_fan_out_accumulates_in_the_eager_order():
    rng = np.random.default_rng(5)
    values = [rng.normal(size=(3, 4)) for _ in range(3)]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    with Tape() as tape:
        loss = fan_out(*leaves)
    tape.compile(loss, leaves)
    for _ in range(2):                       # recorded, then replayed
        for leaf_ in leaves:
            leaf_.zero_grad()
        loss.backward()
        fresh = [Tensor(v, requires_grad=True) for v in values]
        reference_backward(fan_out(*fresh), np.ones(()))
        assert_same_grads(leaves, fresh)
        values = [v * 1.5 - 0.25 for v in values]
        for leaf_, value in zip(leaves, values):
            leaf_.data = value
        tape.replay()

    eager = [Tensor(v, requires_grad=True) for v in values]
    fan_out(*eager).backward()               # untaped: compiled and run once
    fresh = [Tensor(v, requires_grad=True) for v in values]
    reference_backward(fan_out(*fresh), np.ones(()))
    assert_same_grads(eager, fresh)


def test_retained_interior_node_gets_the_eager_gradient():
    """GradCAM's pattern: an embedding's gradient, read after backward."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    v = rng.normal(size=(5, 4))

    def build_(weight):
        hidden = (x @ weight).relu().retain_grad()
        return hidden, (hidden * Tensor(v)).sum()

    hidden, loss = build_(w)
    loss.backward()
    fresh_w = Tensor(w.data, requires_grad=True)
    fresh_hidden, fresh_loss = build_(fresh_w)
    reference_backward(fresh_loss, np.ones(()))
    assert bits(hidden.grad) == bits(fresh_hidden.grad)
    assert bits(w.grad) == bits(fresh_w.grad)


@pytest.mark.parametrize("upstream_shape", [(3, 4), (4,), ()])
def test_non_scalar_upstream_gradient(upstream_shape):
    rng = np.random.default_rng(7)
    values = [rng.normal(size=(3, 4)), rng.normal(size=(1, 4))]
    upstream = rng.normal(size=upstream_shape)

    def build_(a, b):
        return (a * b).sigmoid() / (b.exp() + 1.0)

    leaves = [Tensor(v, requires_grad=True) for v in values]
    build_(*leaves).backward(upstream)
    fresh = [Tensor(v, requires_grad=True) for v in values]
    out = build_(*fresh)
    reference_backward(out, np.array(np.broadcast_to(upstream, out.shape)))
    assert_same_grads(leaves, fresh)


def test_repeated_backward_on_one_root_across_replays():
    """Each ``backward()`` adds into ``.grad``: two per replay, as eager."""
    rng = np.random.default_rng(8)
    specs, op = OPS["propagate"]
    values = draw(specs, rng, ties=False)
    with Tape() as tape:
        leaves, _, loss = build("propagate", values)
    tape.compile(loss, leaves)
    for _ in range(3):
        for leaf_ in leaves:
            leaf_.zero_grad()
        loss.backward()
        loss.backward()
        fresh_leaves, _, fresh_loss = build("propagate", values)
        reference_backward(fresh_loss, np.ones(()))
        reference_backward(fresh_loss, np.ones(()))
        assert_same_grads(leaves, fresh_leaves)
        values = draw(specs, rng, ties=False)
        for leaf_, value in zip(leaves, values):
            leaf_.data = value
        tape.replay()


def test_compile_drops_what_cannot_reach_a_parameter():
    a = Tensor(np.arange(3.0), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = (a.exp() * b.reshape(1, 3).reshape(3)).sum()
    plan = tape.compile(loss, [a])
    loss.backward()
    assert b.grad is None and np.array_equal(a.grad, np.exp(np.arange(3.0)))
    # sum, product, exp; b's reshapes reach no parameter.
    assert len(tape) == 5 and len(plan) == 3
    with pytest.raises(AutogradError, match="recorded"):
        tape.compile(Tensor(np.ones(1), requires_grad=True).sum(), [a])


def shared(a, b):
    """``x`` and ``y`` first receive one array, passed through a sum by
    ``+``; then ``x`` takes further contributions, which must not be
    added into the array ``y`` still holds."""
    x, y = a.tanh(), b.tanh()
    return (x * x).sum() + (x + y).sum() + (y * 3.0).sum()


@pytest.mark.parametrize("build_", [
    shared, lambda a, b: (b.tanh() * 3.0).sum() + (a.tanh() + b.tanh()).sum(),
    lambda a, b: ((x := a.exp()) + b).sum() + (x * 2.0).sum(),
    lambda a, b: (((p := a.tanh()) - p * 2.0) + b.tanh()).sum(),
    lambda a, b: (((p := a.tanh()).reshape(12) - (p * 2.0).reshape(12))
                  + b.tanh().reshape(12)).sum()],
    ids=["two-then-one", "one-each", "shared-then-added", "shared-then-passed",
         "shared-then-reshaped"])
def test_an_array_two_slots_share_is_not_added_into(build_):
    rng = np.random.default_rng(9)
    values = [rng.normal(size=(3, 4)) for _ in range(2)]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    with Tape() as tape:
        loss = build_(*leaves)
    tape.compile(loss, leaves)
    for _ in range(3):                       # recorded, then replayed twice
        for leaf_ in leaves:
            leaf_.zero_grad()
        loss.backward()
        fresh = [Tensor(v, requires_grad=True) for v in values]
        reference_backward(build_(*fresh), np.ones(()))
        assert_same_grads(leaves, fresh)
        values = [v * 0.5 + 0.125 for v in values]
        for leaf_, value in zip(leaves, values):
            leaf_.data[...] = value
        tape.replay()
