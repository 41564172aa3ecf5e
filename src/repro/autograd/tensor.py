"""A reverse-mode automatic differentiation engine on numpy.

This module provides the :class:`Tensor` class used throughout the library.
It is a deliberately small but complete tape-based autograd implementation:
each differentiable operation records its parents, a forward recipe and a
backward recipe. :meth:`Tensor.backward` compiles the tape below its root
into a :class:`BackwardPlan` — a static list of steps over gradient slots —
and runs it.

Recipes: an op's forward and its backward are each written once, as a
function that makes its numpy calls through a builder ``b``:
``b(np.multiply, g, y, out=b.out(shape))``. Under :data:`EAGER` each call
runs as it is made, and ``b.out`` gives ``None``, so numpy allocates the
result: that is how an op is built, and how an uncompiled backward runs.
Under a :class:`_Binder` each call is recorded instead, once, as a
zero-argument step over arrays that keep their addresses — buffers the
binder allocates, the tape's values and the leaves' data — so a compiled
epoch is one flat loop of bound numpy calls with no Python frame per op.
An op's forward is a recipe ``forward(b, out)`` when numpy can write its
output into a given array (``fills=True``), a view of its parent
(``view=True``: reshapes, transposes, basic indexing), or else a thunk
``forward()`` that returns a new array.

Record and replay: building an op runs its forward once. Inside
``with Tape() as tape:`` every tape node is also kept in creation order.
:meth:`Tape.compile` binds them into a :class:`ForwardPlan` and binds the
:class:`BackwardPlan` of a recorded root; :meth:`Tape.replay` runs the
forward plan after the leaves change — the same numpy calls in the same
order, so a replayed step is bit-exact with building it again — and every
replayed epoch's ``backward()`` runs the bound backward steps. Nodes whose
parents are all frozen never enter the tape, so their values are computed
once. A value an op reads from ``.data`` outside its recipe would go stale
on replay; recording an op built without a forward raises
:class:`~repro.errors.AutogradError`.

The fixed-address epoch: a compiled tape gives every node a value with a
fixed address — its own buffer, or a view computed once — and every live
gradient slot and recipe intermediate a buffer, allocated when the plans
bind and reused every epoch. A leaf's ``.data`` is bound too: change a
leaf in place (``leaf.data[...] = value``, as the optimizer and the mask
learners' per-epoch noise do); a replay that finds a leaf's ``.data``
replaced binds both plans again first. A buffer belongs to its node:
after a replay, a node's ``.data`` holds that epoch's values until the
next replay overwrites them, so a caller that keeps a value copies it.

A backward recipe takes the upstream gradient and returns one gradient per
parent (``None`` for a parent that does not require grad); the plan
routes each into its parent's slot. An op that broadcasts (``+ − * /``)
returns them in the output's shape and the plan sums them down, along
axes it resolved when it compiled.

The op set covers everything message-passing GNNs and mask-learning
explainers need: dense linear algebra, elementwise nonlinearities,
reductions, row gather/scatter (the message-passing primitives),
concatenation and basic indexing. Gradients are verified against central
finite differences in ``tests/autograd``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..errors import AutogradError, ShapeError
from ..sparse import SegmentPlan, kernel, plan_for
from ..sparse.kernels import scatter_add_steps

__all__ = ["Tensor", "SparseLeaf", "Tape", "as_tensor", "no_grad", "concat",
           "propagate"]

_GRAD_ENABLED = [True]
# The node list of the Tape being recorded, or None.
_RECORDING: list = [None]

# Backward recipes take a builder and the upstream gradient and return one
# gradient per parent (None where the parent does not require grad);
# forward recipes take a builder and the buffer to fill (None when built).
BackwardFn = Callable[..., tuple]
ForwardFn = Callable[..., np.ndarray]


class no_grad:
    """Context manager that disables gradient recording.

    Inside the context, new operations do not build the tape. Mirrors
    ``torch.no_grad`` semantics for the subset we need (inference, metric
    computation, perturbation-based explainers).
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_ENABLED[0] = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED[0]


class _Eager:
    """The builder that runs each call of a recipe as it is made."""

    __slots__ = ()

    def __call__(self, fn, *args, **kwargs):
        out = kwargs.get("out")
        if out is not None and type(out) is not np.ndarray:
            del kwargs["out"]                      # a numpy scalar: a 0-d result
        return fn(*args, **kwargs)

    def out(self, shape, dtype=np.float64) -> None:
        return None

    def empty(self, shape) -> np.ndarray:
        return np.empty(shape)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape)

    def reshape(self, array, shape):
        return array.reshape(shape)

    def new(self, fn, shape, *args, out=None):
        return fn(*args)

    def scatter(self, scatter: "_Scatter", values, out=None) -> np.ndarray:
        return scatter(values)

    def add(self, slot, grad):
        return slot + grad

    def add_at(self, target, index, grad) -> None:
        target[index] += grad

    def claim(self, grad, grads):
        return grad

    def consume(self, grad) -> None:
        pass


#: Builds ops and runs uncompiled backward passes.
EAGER = _Eager()


def _refill(out: np.ndarray, fn: Callable, args: tuple) -> None:
    """A bound step for a call numpy cannot direct into ``out``."""
    out[...] = fn(*args)


def _basic(index) -> bool:
    """Whether ``x[index]`` is a view: ints, slices, ``None`` and ``...``."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(part is None or part is Ellipsis or isinstance(part, slice)
               or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
               for part in parts)


def _view_index(index) -> tuple:
    """A basic ``index`` that always gives an array: with a trailing
    ``...``, ints down to a single element give a 0-d view, not a
    numpy scalar."""
    parts = index if isinstance(index, tuple) else (index,)
    return parts if any(part is Ellipsis for part in parts) else parts + (Ellipsis,)


#: Ufuncs numpy deprecates a positional ``out`` for.
_OUT_BY_KEYWORD = (np.maximum, np.minimum)


class _Binder:
    """The builder that records each call of a recipe as a zero-argument
    step over arrays with fixed addresses.

    :meth:`out` allocates a buffer; a call made with ``out=`` is recorded
    with it (a ufunc's positionally, the cheaper call) and returns it. With
    ``prime``, each step also runs as it is recorded, so a forward plan's
    buffers hold the recorded epoch's values when it compiles; a scatter
    there copies the node's recorded value (``recorded``) instead of
    running, so compiling calls no kernel.

    Gradient slots follow a write-then-add rule: a slot whose array is a
    buffer this binder allocated, held by no other slot, is owned — a
    later contribution adds into it in place — and any other slot's first
    addition writes into a new buffer, which that slot then owns.
    """

    __slots__ = ("steps", "prime", "recorded", "fresh", "owned")

    def __init__(self, prime: bool = False):
        self.steps: list[Callable[[], object]] = []
        self.prime = prime
        self.recorded: np.ndarray | None = None
        # id -> array: buffers allocated here (and views of them), and the
        # slot arrays in-place additions may write. Keyed by id, so the
        # arrays are kept alive here.
        self.fresh: dict[int, np.ndarray] = {}
        self.owned: dict[int, np.ndarray] = {}

    def _record(self, step) -> None:
        self.steps.append(step)
        if self.prime:
            step()

    def __call__(self, fn, *args, **kwargs):
        out = kwargs.get("out")
        if out is not None and type(fn) is np.ufunc and len(kwargs) == 1 \
                and len(args) == fn.nin and fn not in _OUT_BY_KEYWORD:
            self._record(partial(fn, *args, out))
        else:
            self._record(partial(fn, *args, **kwargs))
        return out

    def out(self, shape, dtype=np.float64) -> np.ndarray:
        buffer = np.empty(shape, dtype)
        self.fresh[id(buffer)] = buffer
        return buffer

    empty = out

    def zeros(self, shape) -> np.ndarray:
        buffer = self.out(shape)
        self._record(partial(buffer.fill, 0.0))
        return buffer

    def reshape(self, array: np.ndarray, shape) -> np.ndarray:
        view = array.reshape(shape)
        if view.size and not np.may_share_memory(view, array):
            # A reshape that had to copy: copy it again every run.
            buffer = self.out(view.shape)
            self._record(partial(buffer.reshape(array.shape).__setitem__, Ellipsis, array))
            return buffer
        if id(array) in self.fresh:
            self.fresh[id(view)] = view
        return view

    def new(self, fn, shape, *args, out=None) -> np.ndarray:
        if out is None:
            out = self.out(shape)
        self._record(partial(_refill, out, fn, args))
        return out

    def scatter(self, scatter: "_Scatter", values: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = self.out(scatter.shape)
        flat = self.reshape(values, (values.shape[0], scatter.width))
        if not flat.flags.c_contiguous:
            contiguous = self.out(flat.shape)
            self._record(partial(contiguous.__setitem__, Ellipsis, flat))
            flat = contiguous
        steps = scatter_add_steps(scatter.plan, flat,
                                  out.reshape(scatter.shape[0], scatter.width))
        self.steps.extend(steps)
        if self.prime:
            if self.recorded is None:
                for step in steps:
                    step()
            else:                                  # a forward's scatter: its node's value
                out[...] = self.recorded
        return out

    def add(self, slot: np.ndarray, grad) -> np.ndarray:
        if id(slot) in self.owned:
            self._record(partial(np.add, slot, grad, slot))
            return slot
        buffer = np.empty(np.broadcast_shapes(slot.shape, np.shape(grad)))
        self._record(partial(np.add, slot, grad, buffer))
        self.owned[id(buffer)] = buffer
        return buffer

    def add_at(self, target: np.ndarray, index, grad: np.ndarray) -> None:
        if _basic(index):
            view = target[_view_index(index)]
            self._record(partial(np.add, view, grad, view))
        else:
            # Each element at most once (the plan checked): the bits of
            # ``target[index] += grad``, in one call.
            self._record(partial(np.add.at, target, index, grad))  # repro: noqa[RPR050]

    def claim(self, grad, grads: tuple):
        """``grad``, now a slot's array; the slot owns it when this binder
        allocated it and no other parent receives it, or a view of it,
        too. An array two slots share is never owned: neither now, nor by
        a slot a later step passes it (or a reshape of it) through to,
        while the other slot may still read it."""
        if id(grad) in self.fresh:
            if sum(isinstance(g, np.ndarray) and np.may_share_memory(g, grad)
                   for g in grads) <= 1:
                self.owned[id(grad)] = grad
            else:
                self.fresh = {key: array for key, array in self.fresh.items()
                              if not np.may_share_memory(array, grad)}
        return grad

    def consume(self, grad) -> None:
        self.owned.pop(id(grad), None)


class Tape:
    """The tape nodes one computation built, replayable on new leaf values.

    ``with tape:`` keeps every tape node created inside, in creation
    order. After the leaves' ``.data`` change (an optimizer step),
    :meth:`replay` re-runs each node's forward on its parents' current
    values, through the :class:`ForwardPlan` bound from them: the outputs
    — and, through ``backward()`` on the same root, the gradients — are
    those a fresh build would give, bit for bit. Values derived only from
    frozen tensors are not on the tape and keep their recorded values.
    Like :class:`no_grad`, recording is process-wide: one tape records at
    a time, on the thread that runs the numerics.
    """

    __slots__ = ("nodes", "plan", "compiled")

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.plan: ForwardPlan | None = None
        self.compiled: BackwardPlan | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        if _RECORDING[0] is not None:
            raise AutogradError("a tape is already recording")
        _RECORDING[0] = self.nodes
        self.plan = self.compiled = None           # new nodes: recompile
        return self

    def __exit__(self, *exc) -> None:
        _RECORDING[0] = None

    def replay(self) -> None:
        """Recompute every recorded node from its parents' current data:
        run the forward plan, bound here if :meth:`compile` has not bound
        it, or again if a leaf's ``.data`` was replaced since."""
        if self.plan is None or not self.plan.run():
            self.plan = ForwardPlan(self.nodes)
            if self.compiled is not None:
                self.compiled.bind()
            self.plan.run()

    def compile(self, root: "Tensor", params: Sequence["Tensor"]) -> "BackwardPlan":
        """Bind the recorded forward into the :class:`ForwardPlan`
        :meth:`replay` runs, and the backward pass from ``root``, a node
        this tape recorded, into the plan every later ``root.backward()``
        runs.

        Only ``params`` (and nodes that :meth:`~Tensor.retain_grad`) get a
        ``.grad``: a node whose gradient cannot reach one of them has no
        step. Both plans stay valid across :meth:`replay`, which changes
        values but not shapes, order or parents.
        """
        if not any(node is root for node in self.nodes):
            raise AutogradError("compile() needs a root this tape recorded")
        if self.plan is None:
            self.plan = ForwardPlan(self.nodes, prime=True)
        self.compiled = root._plan = BackwardPlan(root, params)
        self.compiled.bind()
        return self.compiled


class ForwardPlan:
    """The forward pass of a recorded tape, bound once.

    A node whose forward fills (``Tensor._op(..., fills=True)``) gets a
    C-contiguous buffer of its own, which becomes its ``.data`` for good;
    its recipe is bound into steps that write it (and the intermediates
    its backward reads) in place. A view node's ``.data`` is its view of
    the parent's fixed value, computed here once; it has no step. Every
    other node — an op numpy cannot write into a given array, or a
    reshape that had to copy — gets a buffer its step copies a new value
    into. With ``prime``, the buffers start with the recorded values.

    A buffer belongs to one node. Its steps are its only writers, nothing
    keys an identity memo on it, and after a run it holds that run's
    values until the next run overwrites them in place; a caller that
    keeps a value across a replay copies it. The plan also keeps each
    leaf's ``.data`` as bound: :meth:`run` refuses to run once one was
    replaced.
    """

    __slots__ = ("steps", "leaves")

    def __init__(self, nodes: Sequence["Tensor"], prime: bool = False):
        binder = _Binder(prime)
        taped = set(nodes)
        leaves: dict[Tensor, np.ndarray] = {}
        for node in nodes:
            for parent in node._parents:
                if parent not in taped and type(parent) is not SparseLeaf:
                    leaves[parent] = parent.data
            thunk = node._forward
            if node._view:
                value = thunk()
                if value.size == 0 or np.may_share_memory(value, node._parents[0].data):
                    node.data = value
                    continue
            out = np.empty(node.shape)
            if node._fills:
                binder.recorded = node.data
                thunk(binder, out)
            else:
                binder.steps.append(partial(_refill, out, thunk, ()))
                if prime:
                    out[...] = node.data
            node.data = out
        self.steps = binder.steps
        self.leaves = tuple(leaves.items())

    def run(self) -> bool:
        """Recompute every node, in recording order; ``False`` (and no
        work) when a leaf's ``.data`` is no longer the array bound."""
        for leaf, data in self.leaves:
            if leaf.data is not data:
                return False
        for step in self.steps:
            step()
        return True


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, array or scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, b=EAGER) -> np.ndarray:
    """Overflow-free logistic function, written into ``out`` when given.

    With ``c`` the input clipped to ±500 and ``t = exp(−|c|)``, it is
    ``max(t, c ≥ 0) / (1 + t)``: ``1 / (1 + exp(−c))`` from zero up and
    ``e / (1 + e)`` with ``e = exp(c)`` below, since ``exp(−|c|)`` is
    bitwise ``exp(−c)`` or ``exp(c)`` — the two-branch form's bits with
    no masked loop. NaN stays NaN and ±0 gives 0.5. A recipe of bare
    ufuncs, two scratch arrays reused in place.
    """
    shape = np.shape(x)
    clipped = b(np.maximum, x, -500.0, out=b.out(shape))
    clipped = b(np.minimum, clipped, 500.0, out=clipped)
    t = b(np.abs, clipped, out=b.out(shape))
    t = b(np.negative, t, out=t)
    t = b(np.exp, t, out=t)
    upper = b(np.greater_equal, clipped, 0, out=b.out(shape, bool))
    top = b(np.maximum, t, upper, out=clipped)
    t = b(np.add, 1.0, t, out=t)
    return b(np.divide, top, t, out=out)


def _unbroadcast(grad_shape: tuple[int, ...], shape: tuple[int, ...]) -> tuple | None:
    """The reduction that sums a ``grad_shape`` gradient down to
    ``shape``, undoing numpy broadcasting: ``(lead, keep, shape)`` for
    :func:`_reduce`, or ``None`` when the shapes already match."""
    if grad_shape == shape:
        return None
    extra = len(grad_shape) - len(shape)
    lead = tuple(range(extra)) if extra > 0 else ()
    tail = grad_shape[max(extra, 0):]
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and tail[i] != 1)
    return lead, keep, shape


def _reduce(b, grad, reduction: tuple):
    """Apply an :func:`_unbroadcast` reduction: the leading axes summed
    away, then the broadcast ones summed keeping their axes, then the
    shape."""
    lead, keep, shape = reduction
    if lead:
        grad = b(np.add.reduce, grad, axis=lead, out=b.out(np.shape(grad)[len(lead):]))
    if keep:
        kept = tuple(1 if i in keep else s for i, s in enumerate(np.shape(grad)))
        grad = b(np.add.reduce, grad, axis=keep, keepdims=True, out=b.out(kept))
    return b.reshape(grad, shape)


def _selects_once(index) -> bool:
    """Whether ``x[index]`` reads each element of ``x`` at most once.

    Basic indices (ints, slices) do; so does one boolean mask, and
    integer arrays when one of them is strictly increasing and
    non-negative (``omega_e[l, ids]``, ``log_p[np.arange(n), labels]``).
    """
    parts = index if isinstance(index, tuple) else (index,)
    arrays = []
    for part in parts:
        if part is None or part is Ellipsis or isinstance(part, (int, np.integer, slice)):
            continue
        array = np.asarray(part)
        if array.ndim != 1 or array.dtype.kind not in "biu":
            return False
        arrays.append(array)
    if not arrays:
        return True
    if len(arrays) == 1 and arrays[0].dtype.kind == "b":
        return True
    if any(a.dtype.kind == "b" or a.shape != arrays[0].shape for a in arrays):
        return False
    return any(a.size == 0 or (a[0] >= 0 and bool(np.all(a[1:] > a[:-1]))) for a in arrays)


def _split_index(index) -> tuple:
    """``(head, tail)`` with ``x[index]`` the same elements, in the same
    layout, as ``x[head][tail]``, or ``(None, index)``.

    A tuple that mixes leading ints with an array (``omega_e[l, ids]``)
    splits into the ints — a basic index, so ``x[head]`` is a view — and
    the rest: numpy runs the mixed form several times slower. It does not
    split when a slice follows the ints and an array comes later
    (``x[0, :, ids]``): numpy counts the ints as advanced indices there,
    apart from the array, and puts the indexed axis first.
    """
    if not isinstance(index, tuple):
        return None, index
    ints = 0
    while ints < len(index) and isinstance(index[ints], (int, np.integer)) \
            and not isinstance(index[ints], bool):
        ints += 1
    if ints == 0 or ints == len(index):
        return None, index
    tail = index[ints:]
    if not isinstance(tail[0], np.ndarray) \
            and any(isinstance(part, (np.ndarray, list)) for part in tail):
        return None, index
    return index[:ints], tail


def _row_ids(tail):
    """The 1-D integer array ``tail`` selects rows by (``x[ids]``,
    ``x[(ids,)]``), or ``None``."""
    if isinstance(tail, tuple):
        if len(tail) != 1:
            return None
        tail = tail[0]
    if isinstance(tail, np.ndarray) and tail.ndim == 1 and tail.dtype.kind in "iu":
        return tail
    return None


class _IndexAdjoint:
    """The adjoint of ``x[index]``: ``g`` added at ``index`` into zeros
    shaped like ``x``.

    When ``index`` reads each element once (:func:`_selects_once`), a
    :class:`BackwardPlan` does not call it: it adds ``g`` into the
    parent's gradient slot at ``index`` in place.
    """

    __slots__ = ("index", "shape", "once")

    def __init__(self, index, shape: tuple[int, ...]):
        self.index = index
        self.shape = shape
        self.once = _selects_once(index)

    def __call__(self, b, g) -> tuple:
        full = b.zeros(self.shape)
        # Generic fancy indexing (slices, boolean masks, multi-axis
        # tuples) has no SegmentPlan form; row gathers that do should
        # use gather_rows instead.
        b(np.add.at, full, self.index, g)  # repro: noqa[RPR050]
        return (full,)


# How an index adjoint adds into its parent's slot: into fresh zeros (the
# first contribution), in place (a slot the plan allocated that holds no
# -0.0), or into a copy (a slot holding an op's own array, or a sum that
# may hold -0.0). ``slot + 0.0`` is the copy: it turns -0.0 into +0.0
# exactly as adding the eager path's zero-filled array did.
_NEW, _IN_PLACE, _COPY = range(3)


def _seed(grad, shape: tuple[int, ...]) -> np.ndarray:
    """The upstream gradient of a root: ones, or ``grad`` broadcast."""
    if grad is None:
        # Not np.ones_like: its Python wrappers would run on every call.
        seed = np.empty(shape)
        seed.fill(1.0)
        return seed
    return np.array(np.broadcast_to(np.asarray(grad, dtype=np.float64), shape))


class BackwardPlan:
    """The backward pass below one root, compiled once.

    A recorded tape has fixed shapes, a fixed order and fixed parents, so
    every decision of a backward pass can be made once:

    - each node gets a gradient slot; a step reads its node's slot, runs
      its backward recipe and stores (first contribution) or adds each
      returned gradient into its parent's slot — in the order and with
      the arithmetic of a dict-and-DFS backward, so the result is bit for
      bit the same;
    - a broadcasting op's reductions are resolved to axes
      (:func:`_unbroadcast`) here;
    - with ``params`` given, a node whose gradient reaches none of them
      (nor a retained node) has no step and no slot;
    - an index that reads each element once (``omega_e[l, ids]``) adds
      ``g`` into its parent's slot at ``index`` instead of allocating a
      zero array, running ``np.add.at`` and adding it;
    - a reshape with one consumer, of a node it alone feeds, has no step:
      its consumer's edge reshapes straight into the parent's slot (a
      view either way, and the same single contribution).

    Unbound, :meth:`run` walks those steps under :data:`EAGER`. :meth:`bind`
    walks them once under a :class:`_Binder`: every slot, reduction and
    recipe intermediate gets a buffer, and a run is one loop over the
    bound numpy calls, then each sink's ``.grad``.

    The plan holds the recipes, the leaves and the buffers, never the root
    (the root holds the plan), so a finished tape is freed by reference
    counting.
    """

    __slots__ = ("steps", "sinks", "size", "root_slot", "shape", "bound", "seed",
                 "ones", "grads", "__weakref__")

    def __init__(self, root: "Tensor", params: Sequence["Tensor"] | None = None):
        order = root._topological_order()          # parents first, root last
        if params is None:
            live = set(order)
        else:
            wanted = set(params)
            live = set()
            for node in order:
                if node in wanted or node._retain \
                        or any(parent in live for parent in node._parents):
                    live.add(node)
        # Contributions each node's slot receives, and which get an index
        # adjoint's in-place add.
        feeds = dict.fromkeys(live, 0)
        written = set()
        for node in live:
            if node._backward is None:
                continue
            if type(node._backward) is _IndexAdjoint and node._backward.once:
                written.add(node._parents[0])
            for parent in node._parents:
                if parent in live:
                    feeds[parent] += 1
        # Folded reshapes route to the nearest ancestor that keeps a slot.
        route: dict[Tensor, Tensor] = {}
        for node in order:
            if node not in live:
                continue
            parent = node._parents[0] if node._parents else None
            folds = (type(node._backward) is _ReshapeAdjoint and node is not root
                     and not node._retain and node not in written
                     and feeds[node] == 1 and parent in live and feeds[parent] == 1)
            route[node] = route[parent] if folds else node
        slot = {node: i for i, node in enumerate(n for n in order if route.get(n) is n)}
        self.size = len(slot)
        self.root_slot = slot.get(root)
        self.shape = root.shape
        self.sinks = [(node, slot[node]) for node in order
                      if node in slot and node is not root and node._backward is None]
        self.bound = self.seed = self.grads = None
        self.ones = False
        state: dict[int, str] = {}                 # slot -> what it holds
        steps = []
        for node in reversed(order):
            backward = node._backward
            if node not in slot or backward is None:
                continue
            if node._retain and node is not root:
                backward = _retaining(node, backward)
            if type(backward) is _IndexAdjoint and backward.once:
                parent = node._parents[0]
                if parent not in live:
                    continue
                dst = slot[parent]
                held = state.get(dst)
                how = _NEW if held is None else _IN_PLACE if held == "clean" else _COPY
                state[dst] = "clean"
                head, tail = _split_index(backward.index)
                steps.append((None, slot[node], (head, tail, dst, how, parent.shape)))
                continue
            edges = []
            for i, parent in enumerate(node._parents):
                if parent not in live:
                    continue
                target = route[parent]
                dst = slot[target]
                add = dst in state
                state[dst] = "owned" if add else "alias"
                reduction = _unbroadcast(node.shape, parent.shape) if node._bcast else None
                if target is not parent:           # through folded reshapes
                    reduction = (reduction or ((), ()))[:2] + (target.shape,)
                edges.append((i, dst, add, reduction))
            steps.append((backward, slot[node], tuple(edges)))
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def _walk(self, b, seed) -> list:
        """Run (or, under a binder, record) every step from ``seed``; the
        slots as they end."""
        slots: list = [None] * self.size
        slots[self.root_slot] = seed
        for backward, src, edges in self.steps:
            grad = slots[src]
            slots[src] = None                      # consumed: free it early
            b.consume(grad)
            if backward is None:                   # an index adjoint, in place
                head, tail, dst, how, shape = edges
                if how == _NEW:
                    into = b.claim(b.zeros(shape), ())
                elif how == _COPY:
                    into = b.add(slots[dst], 0.0)
                else:
                    into = slots[dst]
                b.add_at(into if head is None else into[head], tail, grad)
                slots[dst] = into
                continue
            grads = backward(b, grad)
            for i, dst, add, reduction in edges:
                grad = grads[i]
                if reduction is not None:
                    grad = _reduce(b, grad, reduction)
                # Out of place unless the slot owns its array: a slot may
                # alias an op's own array.
                slots[dst] = b.add(slots[dst], grad) if add else b.claim(grad, grads)
        return slots

    def bind(self) -> None:
        """Bind every step over buffers allocated here, once: the seed
        (ones until :meth:`run` is given another), the slots, reductions
        and recipe intermediates. Recipes read their nodes' current values,
        so the forward must be bound first."""
        if self.root_slot is None:
            return
        binder = _Binder()
        self.seed = _seed(None, self.shape)
        self.ones = True
        slots = self._walk(binder, self.seed)
        self.bound = binder.steps
        self.grads = [(node, slots[i]) for node, i in self.sinks]

    def run(self, grad=None) -> None:
        """Backpropagate ``grad`` (ones when ``None``) from the root into
        every sink's ``.grad``."""
        if self.root_slot is None:
            return
        if self.bound is None:
            slots = self._walk(EAGER, _seed(grad, self.shape))
            for node, i in self.sinks:
                node._accumulate(slots[i])
            return
        if grad is not None:
            self.seed[...] = grad
            self.ones = False
        elif not self.ones:
            self.seed.fill(1.0)
            self.ones = True
        for step in self.bound:
            step()
        for node, value in self.grads:
            node._accumulate(value)


class _ReshapeAdjoint:
    """The adjoint of a reshape: ``g`` in the input's shape. A
    :class:`BackwardPlan` folds it into the edge that feeds it."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape

    def __call__(self, b, g) -> tuple:
        return (b.reshape(g, self.shape),)


def _retaining(node: "Tensor", backward: BackwardFn) -> BackwardFn:
    """``backward`` that first accumulates the gradient into ``node.grad``
    (:meth:`Tensor.retain_grad` on an interior node)."""
    def step(b, g):
        b(node._accumulate, g)
        return backward(b, g)
    return step


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`. Ignored inside a :class:`no_grad` block.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_forward", "_fills",
                 "_view", "_parents", "_bcast", "_retain", "_csr", "_plan", "name",
                 "__weakref__")

    # Make numpy defer binary ops (np.ndarray * Tensor) to Tensor.
    __array_priority__ = 100.0

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: BackwardFn | None = None
        self._forward: ForwardFn | None = None
        self._fills = False
        self._view = False
        self._parents: tuple[Tensor, ...] = ()
        self._bcast = False
        self._retain = False
        self._csr = None
        self._plan: BackwardPlan | None = None
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar payload of a single-element tensor."""
        if self.data.size != 1:
            raise AutogradError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def annotate_sparse(self, matrix, matrix_t) -> "Tensor":
        """Attach a sparse twin of :attr:`data` for constant-operand matmuls.

        ``matrix`` must equal :attr:`data` and ``matrix_t`` its transpose,
        any scipy sparse format (:func:`repro.sparse.feature_csr` gives a
        CSR matrix and its CSC view). While this tensor does not
        require grad, ``self @ other`` then runs ``matrix @ other`` forward
        and ``matrix_t @ g`` for the weight adjoint — turning the
        first-layer GEMM over bag-of-words features into a sparse matvec
        stack, the branch a :class:`SparseLeaf` runs. Returns ``self``.
        """
        self._csr = (matrix, matrix_t)
        return self

    def retain_grad(self) -> "Tensor":
        """Request that :attr:`grad` be populated even for interior nodes.

        Needed by gradient-based explainers (e.g. GradCAM) that inspect the
        gradient of intermediate node embeddings. Returns ``self``.
        """
        self._retain = True
        return self

    # ------------------------------------------------------------------
    # tape construction & backward
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward: BackwardFn | None,
              forward: ForwardFn | None = None, bcast: bool = False,
              fills: bool = False, view: bool = False) -> "Tensor":
        """The op's output; a tape node when a parent requires grad.

        ``forward`` is what computed ``data``. While a :class:`Tape`
        records, a tape node without one raises: replay could not
        recompute it. ``bcast``: ``backward`` returns the parents'
        gradients in the output's shape, for the plan to sum down to each
        parent's shape. ``fills``: ``forward(b, out)`` is a recipe that
        writes the output into ``out``; ``view``: ``forward()`` returns a
        view of the one parent's data.
        """
        requires = _GRAD_ENABLED[0] and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._bcast = bcast
            recording = _RECORDING[0]
            if recording is not None:
                if forward is None:
                    raise AutogradError("cannot record an op without a forward thunk: "
                                        "replay could not recompute it")
                out._forward = forward
                out._fills = fills
                out._view = view
                recording.append(out)
        return out

    @staticmethod
    def _op(forward: ForwardFn, parents: Sequence["Tensor"], backward: BackwardFn,
            fills: bool = False, view: bool = False, bcast: bool = False) -> "Tensor":
        """Build an op from its forward, run once here (a filling recipe
        under :data:`EAGER`, with no ``out``)."""
        data = forward(EAGER, None) if fills else forward()
        return Tensor._make(data, parents, backward, forward, bcast, fills, view)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Runs the :class:`BackwardPlan` cached on this tensor — compiled and
        bound by :meth:`Tape.compile`, or compiled on the first call — so
        a replayed epoch backpropagates without walking the graph again.

        Parameters
        ----------
        grad:
            Upstream gradient. Defaults to 1 for scalar tensors; required
            otherwise.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None and self.data.size != 1:
            raise AutogradError(
                f"backward() without a gradient requires a scalar output, got shape {self.shape}"
            )
        if self._plan is None:
            self._plan = BackwardPlan(self)
        if self._backward is None or self._retain:
            self._accumulate(_seed(grad, self.shape))
        self._plan.run(grad)

    def _topological_order(self) -> list["Tensor"]:
        """The tape below ``self`` in DFS post-order (parents first).

        Iterative: deep tapes (hundreds of mask learning epochs over
        multi-layer GNNs) would overflow recursion. Tensors hash by
        identity, so they key the sets and dicts directly.
        """
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and parent not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # arithmetic — a parent's gradient is computed only when that parent
    # requires grad (as in __matmul__), so frozen operands (GCN edge
    # norms, frozen biases, loss constants) never pay for a discarded
    # adjoint
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(b, g):
            return (g if self.requires_grad else None, g if other.requires_grad else None)

        return Tensor._op(lambda b, out: b(np.add, self.data, other.data, out=out),
                          (self, other), backward, fills=True, bcast=True)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(b, g):
            return (g if self.requires_grad else None,
                    b(np.negative, g, out=b.out(g.shape)) if other.requires_grad else None)

        return Tensor._op(lambda b, out: b(np.subtract, self.data, other.data, out=out),
                          (self, other), backward, fills=True, bcast=True)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(b, g):
            return (b(np.multiply, g, other.data, out=b.out(g.shape))
                    if self.requires_grad else None,
                    b(np.multiply, g, self.data, out=b.out(g.shape))
                    if other.requires_grad else None)

        return Tensor._op(lambda b, out: b(np.multiply, self.data, other.data, out=out),
                          (self, other), backward, fills=True, bcast=True)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(b, g):
            grad_self = grad_other = None
            if self.requires_grad:
                grad_self = b(np.divide, g, other.data, out=b.out(g.shape))
            if other.requires_grad:                # -g · x / y²  (y² is numpy's y**2)
                grad_other = b(np.negative, g, out=b.out(g.shape))
                grad_other = b(np.multiply, grad_other, self.data, out=grad_other)
                squared = b(np.square, other.data, out=b.out(other.shape))
                grad_other = b(np.divide, grad_other, squared, out=grad_other)
            return (grad_self, grad_other)

        return Tensor._op(lambda b, out: b(np.divide, self.data, other.data, out=out),
                          (self, other), backward, fills=True, bcast=True)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._op(lambda b, out: b(np.negative, self.data, out=out), (self,),
                          lambda b, g: (b(np.negative, g, out=b.out(g.shape)),), fills=True)

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutogradError("tensor exponents are unsupported; compose exp/log instead")
        exponent = float(exponent)

        def adjoint(g, x):
            return g * exponent * x ** (exponent - 1)

        return Tensor._op(lambda: self.data**exponent, (self,),
                          lambda b, g: (b.new(adjoint, g.shape, g, self.data),))

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim != 2:
            raise ShapeError(f"matmul expects (..., K) @ (K, M) tensors, got "
                             f"{self.shape} @ {other.shape}")
        if self.ndim > 2:
            # Stacked states (a batched forward's (N, B, F)) flatten their
            # leading axes into one GEMM.
            lead = self.shape[:-1]
            flat = self.reshape(-1, self.shape[-1]) @ other
            return flat.reshape(lead + (other.shape[1],))

        if self._csr is not None and not self.requires_grad:
            # Sparse-feature path (a SparseLeaf, or annotate_sparse): the
            # left operand is a constant sparse matrix, so forward and the
            # weight adjoint are CSR matvec stacks over its nonzeros.
            matrix, matrix_t = self._csr

            return Tensor._op(lambda: matrix @ other.data, (self, other),
                              lambda b, g: (None, b.new(matrix_t.__matmul__, other.shape, g)))

        # A frozen right operand's adjoint multiplies by a C-contiguous copy
        # of its transpose, made once per op: BLAS's transposed-operand
        # kernel makes a row of dX depend on how many rows share the GEMM,
        # which a row-trimmed forward must not see (DESIGN.md, "Flow-trimmed
        # forward"). A trainable operand keeps the view of its current data.
        frozen_t = None
        if _GRAD_ENABLED[0] and self.requires_grad and not other.requires_grad:
            frozen_t = np.ascontiguousarray(other.data.T)

        def backward(b, g):
            # Guard each GEMM on the parent actually needing it: the first
            # GNN layer multiplies a constant feature matrix (N, F) with
            # F ≫ hidden, and the unused dX = g @ W.T would be the single
            # most expensive allocation of the whole backward pass.
            return (b(np.matmul, g, other.data.T if frozen_t is None else frozen_t,
                      out=b.out(self.shape)) if self.requires_grad else None,
                    b(np.matmul, self.data.T, g, out=b.out(other.shape))
                    if other.requires_grad else None)

        return Tensor._op(lambda b, out: b(np.matmul, self.data, other.data, out=out),
                          (self, other), backward, fills=True)

    # Comparisons yield plain numpy boolean arrays (non-differentiable).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def _pointwise(self, forward, backward) -> "Tensor":
        """An elementwise op: ``forward(b, x, out)`` returns ``(y,
        saved)``, ``y`` written into ``out`` when it is given, and
        ``backward(b, g, saved)`` the gradient of ``x``.

        ``saved`` (the output, a mask, ...) lives in a cell the forward
        sets — when the op is built, and again when a plan binds it —
        never on the output tensor: a closure over the tensor that owns it
        would be a reference cycle, and every tape would wait for the
        garbage collector.
        """
        saved = None

        def thunk(b, out):
            nonlocal saved
            y, saved = forward(b, self.data, out)
            return y

        return Tensor._op(thunk, (self,), lambda b, g: (backward(b, g, saved),), fills=True)

    def exp(self) -> "Tensor":
        return self._pointwise(lambda b, x, out: (y := b(np.exp, x, out=out), y),
                               lambda b, g, y: b(np.multiply, g, y, out=b.out(g.shape)))

    def log(self) -> "Tensor":
        return self._pointwise(lambda b, x, out: (b(np.log, x, out=out), x),
                               lambda b, g, x: b(np.divide, g, x, out=b.out(g.shape)))

    def sqrt(self) -> "Tensor":
        def backward(b, g, y):                     # g · 0.5 / y
            half = b(np.multiply, g, 0.5, out=b.out(g.shape))
            return b(np.divide, half, y, out=half)

        return self._pointwise(lambda b, x, out: (y := b(np.sqrt, x, out=out), y), backward)

    def tanh(self) -> "Tensor":
        def backward(b, g, y):                     # g · (1 − y²)
            slope = b(np.square, y, out=b.out(y.shape))
            slope = b(np.subtract, 1.0, slope, out=slope)
            return b(np.multiply, g, slope, out=slope)

        return self._pointwise(lambda b, x, out: (y := b(np.tanh, x, out=out), y), backward)

    def sigmoid(self) -> "Tensor":
        def backward(b, g, y):                     # g · y · (1 − y)
            grad = b(np.multiply, g, y, out=b.out(g.shape))
            rest = b(np.subtract, 1.0, y, out=b.out(y.shape))
            return b(np.multiply, grad, rest, out=grad)

        return self._pointwise(lambda b, x, out: (y := _sigmoid(x, out, b), y), backward)

    def relu(self) -> "Tensor":
        def forward(b, x, out):
            mask = b(np.greater, x, 0, out=b.out(x.shape, bool))
            return b(np.multiply, x, mask, out=out), mask

        return self._pointwise(forward,
                               lambda b, g, mask: b(np.multiply, g, mask, out=b.out(g.shape)))

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        def slope(x):
            return np.where(x > 0, 1.0, negative_slope)

        def forward(b, x, out):
            factor = b.new(slope, x.shape, x)
            return b(np.multiply, x, factor, out=out), factor

        return self._pointwise(forward,
                               lambda b, g, factor: b(np.multiply, g, factor, out=b.out(g.shape)))

    def softplus(self) -> "Tensor":
        def forward(b, x, out):                    # and 1 / (1 + exp(−clip(x, ±500)))
            y = b(np.logaddexp, 0.0, x, out=out)
            sig = b(np.maximum, x, -500.0, out=b.out(x.shape))
            sig = b(np.minimum, sig, 500.0, out=sig)
            sig = b(np.negative, sig, out=sig)
            sig = b(np.exp, sig, out=sig)
            sig = b(np.add, 1.0, sig, out=sig)
            return y, b(np.divide, 1.0, sig, out=sig)

        return self._pointwise(forward,
                               lambda b, g, sig: b(np.multiply, g, sig, out=b.out(g.shape)))

    def abs(self) -> "Tensor":
        return self._pointwise(
            lambda b, x, out: (b(np.abs, x, out=out), b(np.sign, x, out=b.out(x.shape))),
            lambda b, g, sign: b(np.multiply, g, sign, out=b.out(g.shape)))

    def clip(self, lo: float, hi: float) -> "Tensor":
        def forward(b, x, out):                    # and the mask (x ≥ lo) & (x ≤ hi)
            y = b(np.maximum, x, lo, out=out)
            y = b(np.minimum, y, hi, out=y)
            inside = b(np.greater_equal, x, lo, out=b.out(x.shape, bool))
            below = b(np.less_equal, x, hi, out=b.out(x.shape, bool))
            return y, b(np.bitwise_and, inside, below, out=inside)

        return self._pointwise(forward,
                               lambda b, g, mask: b(np.multiply, g, mask, out=b.out(g.shape)))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        kept = None            # the output's shape with the summed axes kept
        if axis is not None and not keepdims:
            summed = {a % self.ndim for a in (axis if isinstance(axis, tuple) else (axis,))}
            kept = tuple(1 if i in summed else s for i, s in enumerate(shape))

        def backward(b, g):
            grad = b.empty(shape)                  # g, broadcast over the input
            b(grad.__setitem__, Ellipsis, g if kept is None else b.reshape(g, kept))
            return (grad,)

        return Tensor._op(
            lambda b, out: b(np.add.reduce, self.data, axis=axis, keepdims=keepdims, out=out),
            (self,), backward, fills=True)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        data = None
        counted = shape if axis is None else tuple(
            1 if i == axis % len(shape) else s for i, s in enumerate(shape))

        def forward(b, out):
            nonlocal data
            data = b(np.maximum.reduce, self.data, axis=axis, keepdims=keepdims, out=out)
            return data

        def backward(b, g):
            expanded = data if (keepdims or axis is None) else np.expand_dims(data, axis=axis)
            mask = b(np.equal, self.data, expanded, out=b.out(shape, bool))
            if axis is None:
                counts = b(np.add.reduce, mask, axis=None, out=b.out((), np.int64))
            else:
                counts = b(np.add.reduce, mask, axis=axis, keepdims=True,
                           out=b.out(counted, np.int64))
            grad = g if (keepdims or axis is None) else np.expand_dims(g, axis=axis)
            grad = b(np.multiply, mask, grad, out=b.out(shape))
            return (b(np.divide, grad, counts, out=grad),)

        return Tensor._op(forward, (self,), backward, fills=True)

    # ------------------------------------------------------------------
    # shape manipulation & indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._op(lambda: self.data.reshape(shape), (self,),
                          _ReshapeAdjoint(self.shape), view=True)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        inverse = None if axes is None else tuple(np.argsort(axes))
        return Tensor._op(lambda: self.data.transpose(axes), (self,),
                          lambda b, g: (g.transpose(inverse),), view=True)

    def __getitem__(self, index) -> "Tensor":
        adjoint = _IndexAdjoint(index, self.shape)
        if _basic(index):
            view = _view_index(index)
            return Tensor._op(lambda: self.data[view], (self,), adjoint, view=True)
        head, tail = _split_index(index)
        rows = _row_ids(tail)
        if rows is not None:
            # A gather of rows (of a view, when the index splits): built
            # by indexing, which checks ``rows``; a bound replay takes
            # them into its buffer (``mode="wrap"``: numpy buffers ``out``
            # under "raise").
            def forward(b, out):
                source = self.data if head is None else self.data[head]
                if out is None:
                    return source[rows]
                return b(source.take, rows, axis=0, out=out, mode="wrap")

            return Tensor._op(forward, (self,), adjoint, fills=True)
        if head is not None:                       # a view, then the array part
            return Tensor._op(lambda: self.data[head][tail], (self,), adjoint)
        return Tensor._op(lambda: self.data[index], (self,), adjoint)

    # ------------------------------------------------------------------
    # message-passing primitives (plan-backed: forward and adjoint both
    # dispatch through the repro.sparse kernel registry)
    # ------------------------------------------------------------------
    def gather_rows(self, index: np.ndarray,
                    plan: SegmentPlan | None = None) -> "Tensor":
        """Select rows ``self[index]`` along axis 0 (``torch.index_select``).

        The backward pass scatter-adds gradients back to the source rows —
        the adjoint needed for per-edge message construction (``x[src]``).
        That scatter dispatches through the active ``repro.sparse`` kernel
        backend; pass ``plan`` (a :class:`SegmentPlan` over
        ``(index, self.shape[0])``, e.g. ``sparse_cache(graph).src_plan``)
        to reuse a per-graph compiled structure, or omit it and the
        identity-keyed ``plan_for`` memo compiles one per index array.
        """
        index = np.asarray(index, dtype=np.int64)
        shape = self.shape
        if plan is not None:
            plan.check_shape(index.shape[0], shape[0])
        scatter = None

        def backward(b, g):
            nonlocal scatter
            if scatter is None:                    # the plan looked up once, then kept
                scatter = _Scatter(plan if plan is not None else plan_for(index, shape[0]),
                                   shape)
            return (b.scatter(scatter, g, b.out(shape)),)

        def forward(b, out):
            # Building indexes, which checks ``index`` against the rows; a
            # bound replay, on the same shapes, gathers into its buffer
            # (``mode="wrap"``: numpy buffers ``out`` under "raise").
            if out is None:
                return self.data[index]
            return b(self.data.take, index, axis=0, out=out, mode="wrap")

        return Tensor._op(forward, (self,), backward, fills=True)

    def scatter_add(self, index: np.ndarray, num_rows: int,
                    plan: SegmentPlan | None = None) -> "Tensor":
        """Sum rows of ``self`` into ``num_rows`` output slots by ``index``.

        ``out[index[i]] += self[i]`` — the aggregation step of message
        passing; its adjoint is a row gather. The forward scatter runs as
        a compiled CSR segment sum on the active ``repro.sparse`` backend;
        pass ``plan`` (e.g. ``sparse_cache(graph).dst_plan``) to skip even
        the memoized plan lookup.
        """
        index = np.asarray(index, dtype=np.int64)
        if index.shape[0] != self.shape[0]:
            raise ShapeError(
                f"scatter_add index length {index.shape[0]} != leading dim {self.shape[0]}"
            )
        num_rows = int(num_rows)
        if plan is None:
            plan = plan_for(index, num_rows)
        else:
            plan.check_shape(index.shape[0], num_rows)
        scatter = _Scatter(plan, (num_rows,) + self.shape[1:])
        shape = self.shape

        return Tensor._op(
            lambda b, out: b.scatter(scatter, self.data, out), (self,),
            lambda b, g: (b(g.take, index, axis=0, out=b.out(shape), mode="wrap"),),
            fills=True)


def propagate(h: Tensor, cache, coeff: Tensor | None = None,
              mask: Tensor | None = None) -> Tensor:
    """Message passing as one tape node: ``out[dst] += (h[src] · coeff) · mask``.

    The fused form of ``h.gather_rows(src) * coeff * mask`` followed by
    ``.scatter_add(dst)``: the forward and every gradient repeat that
    chain's arithmetic in the same order, bit for bit, but the epoch
    records one node instead of four. When neither ``h`` nor ``coeff``
    requires grad (a frozen first layer), the pre-mask messages
    ``h[src] · coeff`` are computed once, off the tape, and a replayed
    epoch only re-masks and scatters them.

    Batched states — ``(N, B, K)`` stacks of ``B`` forwards, as
    :meth:`GNN.forward_masked_batch <repro.nn.GNN.forward_masked_batch>`
    runs them — with a scalar per-edge ``coeff`` (GCN, GIN) and no
    operand requiring grad skip the chain: the ``(A, B)`` product of
    ``coeff`` and ``mask`` goes to the fused ``gather_scatter`` kernel,
    which never materializes the ``(A, B, K)`` messages.

    Parameters
    ----------
    h:
        ``(N, ...)`` node states, gathered by ``cache.src``.
    cache:
        The :class:`~repro.sparse.GraphSparseCache` (or a
        :meth:`~repro.sparse.GraphSparseCache.restrict` sub-cache) whose
        ``A`` layer edges the layer runs over. Both scatters — the forward
        over ``dst_plan`` into the ``cache.num_nodes`` output rows and the
        adjoint of the gather over ``src_plan`` into the rows ``h`` has —
        dispatch through the ``scatter_add`` kernel.
    coeff:
        Optional per-edge coefficient broadcasting against ``h[src]``:
        ``(A, 1)`` for ``(N, F)`` states (GCN's ``edge_norm``, GIN's
        ``(1 + ε)`` self-loop scale), ``(A, H, 1)`` for ``(N, H, F)``
        (GAT attention); ``(A, 1)`` or ``(A, B)`` for ``(N, B, F)``
        stacks. It may require grad.
    mask:
        Optional Eq. (6) layer-edge mask of ``A`` entries, shaped ``(A,)``
        or ``(A, 1)``, or ``(A, B)`` with one column per stacked forward;
        its gradient comes back in its own shape.
    """
    src, dst, num_rows = cache.src, cache.dst, cache.num_nodes
    num_edges = src.shape[0]
    if mask is not None and (mask.shape[0] != num_edges or mask.ndim > 2):
        raise ShapeError(
            f"edge mask has shape {mask.shape}, expected {num_edges} entries "
            "(one per layer edge) or one column of them per stacked forward")
    parents = [t for t in (h, coeff, mask) if t is not None]
    if h.ndim == 3 and (coeff is None or coeff.ndim == 2) \
            and not (is_grad_enabled() and any(t.requires_grad for t in parents)):
        return Tensor(_gather_scatter(h.data, cache, coeff, mask))
    upstream = h.requires_grad or (coeff is not None and coeff.requires_grad)
    # Per-edge operands lead with the edge axis and broadcast over the
    # trailing axes of the messages.
    gathered = (num_edges,) + h.shape[1:]
    coeff_shape = mask_shape = None
    scaled_shape = gathered
    if coeff is not None:
        coeff_shape = coeff.shape + (1,) * (h.ndim - coeff.ndim)
        scaled_shape = np.broadcast_shapes(gathered, coeff_shape)
    if mask is not None:
        mask_shape = mask.shape + (1,) * (len(scaled_shape) - mask.ndim)
    messages = np.broadcast_shapes(scaled_shape, *(() if mask_shape is None else (mask_shape,)))
    # The scatter into the output rows, and the gather's adjoint back to
    # the rows ``h`` has, which a row-trimmed layer numbers apart.
    scatter = _Scatter(cache.dst_plan, (num_rows,) + messages[1:])
    adjoint = (_Scatter(cache.src_plan, (cache.src_plan.num_rows,) + messages[1:])
               if h.requires_grad else None)
    base = scaled = coeff_b = mask_b = None

    def premask(b):
        nonlocal base, scaled, coeff_b
        # Building indexes ``h.data[src]``, which checks ``src`` against
        # ``h``'s rows; a bound replay, on the same shapes, gathers into
        # its buffer (``mode="wrap"``: numpy buffers ``out`` under "raise").
        buffer = b.out(gathered)
        base = scaled = (h.data[src] if buffer is None
                         else b(h.data.take, src, axis=0, out=buffer, mode="wrap"))
        if coeff is not None:
            coeff_b = b.reshape(coeff.data, coeff_shape)
            scaled = b(np.multiply, base, coeff_b, out=b.out(scaled_shape))

    def forward(b, out):
        nonlocal mask_b
        if upstream:
            premask(b)
        masked = scaled
        if mask is not None:
            mask_b = b.reshape(mask.data, mask_shape)
            masked = b(np.multiply, scaled, mask_b, out=b.out(messages))
        return b.scatter(scatter, masked, out)

    def backward(b, g):
        # Adjoint of the scatter, into an array of this step's own; the
        # products below scale it in place.
        g = b(g.take, dst, axis=0, out=b.out(messages), mode="wrap")
        h_grad = coeff_grad = mask_grad = None
        if mask is not None:
            if mask.requires_grad:
                mask_grad = _reduce(b, b(np.multiply, g, scaled, out=b.out(messages)),
                                    mask_sum)
            if upstream:
                g = b(np.multiply, g, mask_b, out=g)
        if upstream:
            if coeff is not None:
                if coeff.requires_grad:
                    coeff_grad = _reduce(b, b(np.multiply, g, base, out=b.out(messages)),
                                         coeff_sum)
                g = b(np.multiply, g, coeff_b, out=g)
            if h.requires_grad:
                h_grad = b.scatter(adjoint, g, b.out(adjoint.shape))   # adjoint of the gather
        if coeff is None:
            return (h_grad,) if mask is None else (h_grad, mask_grad)
        return (h_grad, coeff_grad) if mask is None else (h_grad, coeff_grad, mask_grad)

    # Each per-edge operand's gradient sums the messages' shape down to
    # its broadcast shape, then takes its own: resolved once, here.
    mask_sum = coeff_sum = None
    if mask is not None:
        mask_sum = (_unbroadcast(messages, mask_shape) or ((), ()))[:2] + (mask.shape,)
    if coeff is not None:
        coeff_sum = (_unbroadcast(messages, coeff_shape) or ((), ()))[:2] + (coeff.shape,)
    if not upstream:
        premask(EAGER)                             # frozen: once, off the tape
    return Tensor._op(forward, parents, backward, fills=True)


def _gather_scatter(h: np.ndarray, cache, coeff: Tensor | None,
                    mask: Tensor | None) -> np.ndarray:
    """``(N, B, K)`` states aggregated under ``(A, 1|B)`` edge weights."""
    weights = None if coeff is None else coeff.data
    if mask is not None:
        columns = mask.data if mask.ndim == 2 else mask.data[:, None]
        weights = columns if weights is None else weights * columns
    if weights is None:
        weights = np.ones((cache.src.shape[0], 1))
    dense = h[:, 0] if h.shape[1] == 1 else h      # batch-shared states
    return kernel("gather_scatter")(cache.dst_plan, cache.src, weights, dense)


class _Scatter:
    """``out[index[i]] += values[i]``: ``(A, ...)`` rows summed into
    ``shape = (num_rows, ...)`` by a :class:`SegmentPlan`, through the
    registry's ``scatter_add`` on the 2-D ``(A, W)`` payloads it takes.

    A call resolves the kernel and returns a new array, as building an op
    does; a :class:`_Binder` binds it once instead
    (:func:`~repro.sparse.kernels.scatter_add_steps`), under the backend
    active then, over the 2-D views of its fixed input and output.
    """

    __slots__ = ("plan", "shape", "width")

    def __init__(self, plan: SegmentPlan, shape: tuple[int, ...]):
        self.plan = plan
        self.shape = shape
        self.width = math.prod(shape[1:])

    def __call__(self, values: np.ndarray) -> np.ndarray:
        flat = values.reshape(values.shape[0], self.width)
        return np.ascontiguousarray(kernel("scatter_add")(self.plan, flat)).reshape(self.shape)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    slicers = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer: list = [slice(None)] * tensors[0].ndim
        slicer[axis] = slice(int(start), int(stop))
        slicers.append(tuple(slicer))

    return Tensor._op(
        lambda b, out: b(np.concatenate, [t.data for t in tensors], axis=axis, out=out),
        tensors, lambda b, grad: tuple([grad[slicer] for slicer in slicers]), fills=True)


class SparseLeaf(Tensor):
    """A constant sparse ``(N, F)`` matrix as a tape leaf.

    It holds ``matrix`` and its transpose ``matrix_t`` (a CSR feature
    matrix and its zero-copy CSC view ``matrix.T``) and no dense copy:
    ``leaf @ W`` runs the sparse branch of :meth:`Tensor.__matmul__`,
    forward ``matrix @ W`` and weight adjoint ``matrix_t @ g``, exactly as
    a dense tensor with that twin attached (:meth:`Tensor.annotate_sparse`)
    would. Any other op would read dense values it does not have, so
    :attr:`data` raises :class:`~repro.errors.AutogradError` instead of
    returning something wrong; a consumer that needs dense features reads
    them with :func:`repro.sparse.feature_dense` on :attr:`matrix`.
    """

    __slots__ = ()

    def __init__(self, matrix, matrix_t, name: str | None = None):
        self.requires_grad = False
        self.grad = None
        self._backward = None
        self._forward = None
        self._fills = False
        self._view = False
        self._parents = ()
        self._bcast = False
        self._retain = False
        self._csr = (matrix, matrix_t)
        self._plan = None
        self.name = name

    @property
    def data(self):
        raise AutogradError(
            f"a sparse leaf {self.shape} has no dense data: only `leaf @ W` reads it; "
            "densify with repro.sparse.feature_dense(leaf.matrix)")

    @property
    def matrix(self):
        """The sparse matrix this leaf stands for."""
        return self._csr[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self._csr[0].shape

    @property
    def ndim(self) -> int:
        return 2
