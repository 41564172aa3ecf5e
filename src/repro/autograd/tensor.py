"""A reverse-mode automatic differentiation engine on numpy.

This module provides the :class:`Tensor` class used throughout the library.
It is a deliberately small but complete tape-based autograd implementation:
each differentiable operation records its parents, a backward closure and
a forward thunk. :meth:`Tensor.backward` compiles the tape below its root
into a :class:`BackwardPlan` — a static list of steps over preallocated
gradient slots — and runs it.

Record and replay: an op's forward is written once, as a thunk that
computes its output (and any intermediate its backward reads) from its
parents' current ``.data``. Building the op calls it once. Inside
``with Tape() as tape:`` every tape node is also kept in creation order,
and :meth:`Tape.replay` re-runs those thunks after the leaves change — the
same numpy calls in the same order, so a replayed step is bit-exact with
building it again. Nodes whose parents are all frozen never enter the
tape, so their values are computed once. A value an op reads from
``.data`` outside its thunk would go stale on replay; recording an op
built without a thunk raises :class:`~repro.errors.AutogradError`.
:meth:`Tape.compile` caches the plan of a recorded root, so every replayed
epoch's ``backward()`` runs the steps epoch 1 compiled: no graph walk, no
per-node dispatch, each broadcast reduction resolved once.

A backward closure takes the upstream gradient and returns one gradient
per parent (``None`` for a parent that does not require grad); the plan
routes each into its parent's slot. An op that broadcasts (``+ − * /``,
:func:`where`) returns them in the output's shape and the plan sums them
down, along axes it resolved when it compiled.

The op set covers everything message-passing GNNs and mask-learning
explainers need: dense linear algebra, elementwise nonlinearities,
reductions, row gather/scatter (the message-passing primitives),
concatenation and basic indexing. Gradients are verified against central
finite differences in ``tests/autograd``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import AutogradError, ShapeError
from ..sparse import SegmentPlan, kernel, plan_for

__all__ = ["Tensor", "SparseLeaf", "Tape", "as_tensor", "no_grad", "is_grad_enabled",
           "concat", "stack", "where", "propagate"]

_GRAD_ENABLED = [True]
# The node list of the Tape being recorded, or None.
_RECORDING: list = [None]

# Backward closures take the upstream gradient and return one gradient per
# parent (None where the parent does not require grad); forward thunks
# return the op's output array from its parents' current data.
BackwardFn = Callable[[np.ndarray], tuple]
ForwardFn = Callable[[], np.ndarray]


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


class Tape:
    """The tape nodes one computation built, replayable on new leaf values.

    ``with tape:`` keeps every tape node created inside, in creation
    order. After the leaves' ``.data`` change (an optimizer step),
    :meth:`replay` re-runs each node's forward thunk on its parents'
    current values: the outputs — and, through ``backward()`` on the same
    root, the gradients — are those a fresh build would give, bit for
    bit. Values derived only from frozen tensors are not on the tape and
    keep their recorded values. Like :class:`no_grad`, recording is
    process-wide: one tape records at a time, on the thread that runs
    the numerics.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        if _RECORDING[0] is not None:
            raise AutogradError("a tape is already recording")
        _RECORDING[0] = self.nodes
        return self

    def __exit__(self, *exc) -> None:
        _RECORDING[0] = None

    def replay(self) -> None:
        """Recompute every recorded node from its parents' current data."""
        for node in self.nodes:
            node.data = node._forward()

    def compile(self, root: "Tensor", params: Sequence["Tensor"]) -> "BackwardPlan":
        """Compile the backward pass from ``root``, a node this tape
        recorded, into the plan every later ``root.backward()`` runs.

        Only ``params`` (and nodes that :meth:`~Tensor.retain_grad`) get a
        ``.grad``: a node whose gradient cannot reach one of them has no
        step. The plan stays valid across :meth:`replay`, which changes
        values but not shapes, order or parents.
        """
        if not any(node is root for node in self.nodes):
            raise AutogradError("compile() needs a root this tape recorded")
        root._plan = BackwardPlan(root, params)
        return root._plan


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, array or scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function.

    ``e / (1 + e)`` with ``e = exp(x)`` below zero, ``1 / (1 + exp(-x))``
    from zero up, on ``x`` clipped to ±500; NaN takes the first branch and
    stays NaN. Bare ufuncs only: it runs in every replayed epoch, where
    ``np.clip`` / ``np.where`` would add Python frames per call.
    """
    clipped = np.minimum(np.maximum(x, -500.0), 500.0)
    e = np.exp(clipped)
    out = np.divide(e, 1.0 + e, out=np.empty(clipped.shape, clipped.dtype))
    return np.divide(1.0, 1.0 + np.exp(-clipped), out=out, where=clipped >= 0)


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


def _reduce(grad: np.ndarray, reduction: tuple) -> np.ndarray:
    """Apply an :func:`_unbroadcast` reduction: the leading axes summed
    away, then the broadcast ones summed keeping their axes, then the
    shape."""
    lead, keep, shape = reduction
    if lead:
        grad = np.add.reduce(grad, axis=lead)
    if keep:
        grad = np.add.reduce(grad, axis=keep, keepdims=True)
    return grad.reshape(shape)


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
    """``(head, tail)`` with ``x[index]`` the same elements as
    ``x[head][tail]``, or ``(None, index)``.

    A tuple that mixes leading ints with an array (``omega_e[l, ids]``)
    splits into the ints — a basic index, so ``x[head]`` is a view — and
    the rest: numpy runs the mixed form several times slower.
    """
    if not isinstance(index, tuple):
        return None, index
    ints = 0
    while ints < len(index) and isinstance(index[ints], (int, np.integer)) \
            and not isinstance(index[ints], bool):
        ints += 1
    if ints == 0 or ints == len(index):
        return None, index
    return index[:ints], index[ints:]


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

    def __call__(self, g: np.ndarray) -> tuple:
        full = np.zeros(self.shape)
        # Generic fancy indexing (slices, boolean masks, multi-axis
        # tuples) has no SegmentPlan form; row gathers that do should
        # use gather_rows instead.
        np.add.at(full, self.index, g)  # repro: noqa[RPR050]
        return (full,)


# How an index adjoint adds into its parent's slot: into fresh zeros (the
# first contribution), in place (a slot the plan allocated that holds no
# -0.0), or into a copy (a slot holding an op's own array, or a sum that
# may hold -0.0). ``slot + 0.0`` is the copy: it turns -0.0 into +0.0
# exactly as adding the eager path's zero-filled array did.
_NEW, _IN_PLACE, _COPY = range(3)


class BackwardPlan:
    """The backward pass below one root, compiled once.

    A recorded tape has fixed shapes, a fixed order and fixed parents, so
    every decision of a backward pass can be made once:

    - each node gets a gradient slot; a step reads its node's slot, calls
      its backward closure and stores (first contribution) or adds each
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

    The plan holds the closures and the leaves, never the root (the root
    holds the plan), so a finished tape is freed by reference counting.
    """

    __slots__ = ("steps", "sinks", "size", "root_slot", "__weakref__")

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
        self.sinks = [(node, slot[node]) for node in order
                      if node in slot and node is not root and node._backward is None]
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

    def run(self, seed: np.ndarray) -> None:
        """Backpropagate ``seed`` from the root into every sink's ``.grad``."""
        if self.root_slot is None:
            return
        slots: list = [None] * self.size
        slots[self.root_slot] = seed
        for backward, src, edges in self.steps:
            grad = slots[src]
            slots[src] = None                      # consumed: free it early
            if backward is None:                   # an index adjoint, in place
                head, tail, dst, how, shape = edges
                if how == _NEW:
                    into = np.zeros(shape)
                elif how == _COPY:
                    into = slots[dst] + 0.0
                else:
                    into = slots[dst]
                (into if head is None else into[head])[tail] += grad
                slots[dst] = into
                continue
            grads = backward(grad)
            for i, dst, add, reduction in edges:
                grad = grads[i]
                if reduction is not None:
                    grad = _reduce(grad, reduction)
                # Out-of-place add: a slot may alias an op's own array.
                slots[dst] = slots[dst] + grad if add else grad
        for node, i in self.sinks:
            node._accumulate(slots[i])


class _ReshapeAdjoint:
    """The adjoint of a reshape: ``g`` in the input's shape. A
    :class:`BackwardPlan` folds it into the edge that feeds it."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape

    def __call__(self, g: np.ndarray) -> tuple:
        return (g.reshape(self.shape),)


def _retaining(node: "Tensor", backward: BackwardFn) -> BackwardFn:
    """``backward`` that first accumulates the gradient into ``node.grad``
    (:meth:`Tensor.retain_grad` on an interior node)."""
    def step(g):
        node._accumulate(g)
        return backward(g)
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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_forward", "_parents",
                 "_bcast", "_retain", "_csr", "_plan", "name", "__weakref__")

    # Make numpy defer binary ops (np.ndarray * Tensor) to Tensor.
    __array_priority__ = 100.0

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: BackwardFn | None = None
        self._forward: ForwardFn | None = None
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
              forward: ForwardFn | None = None, bcast: bool = False) -> "Tensor":
        """The op's output; a tape node when a parent requires grad.

        ``forward`` is the thunk that computed ``data``. While a
        :class:`Tape` records, a tape node without one raises: replay
        could not recompute it. ``bcast``: ``backward`` returns the
        parents' gradients in the output's shape, for the plan to sum
        down to each parent's shape.
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
                recording.append(out)
        return out

    @staticmethod
    def _op(forward: ForwardFn, parents: Sequence["Tensor"], backward: BackwardFn) -> "Tensor":
        """Build an op from its forward thunk (called once here)."""
        return Tensor._make(forward(), parents, backward, forward)

    def _unary_op(self, forward: ForwardFn, backward: BackwardFn) -> "Tensor":
        return Tensor._make(forward(), (self,), backward, forward)

    def _binary_op(self, other: "Tensor", forward: ForwardFn, backward: BackwardFn) -> "Tensor":
        return Tensor._make(forward(), (self, other), backward, forward)

    def _broadcasting_op(self, other: "Tensor", forward: ForwardFn,
                         backward: BackwardFn) -> "Tensor":
        """A binary elementwise op: ``backward`` returns both gradients in
        the output's shape."""
        return Tensor._make(forward(), (self, other), backward, forward, bcast=True)

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

        Runs the :class:`BackwardPlan` cached on this tensor — compiled by
        :meth:`Tape.compile`, or on the first call — so a replayed epoch
        backpropagates without walking the graph again.

        Parameters
        ----------
        grad:
            Upstream gradient. Defaults to 1 for scalar tensors; required
            otherwise.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    f"backward() without a gradient requires a scalar output, got shape {self.shape}"
                )
            # Not np.ones_like: its Python wrappers run on every replayed epoch.
            seed = np.empty(self.data.shape)
            seed.fill(1.0)
        else:
            seed = np.array(np.broadcast_to(np.asarray(grad, dtype=np.float64), self.shape))
        if self._plan is None:
            self._plan = BackwardPlan(self)
        if self._backward is None or self._retain:
            self._accumulate(seed)
        self._plan.run(seed)

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

        def backward(g):
            return (g if self.requires_grad else None, g if other.requires_grad else None)

        return self._broadcasting_op(other, lambda: self.data + other.data, backward)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(g):
            return (g if self.requires_grad else None, -g if other.requires_grad else None)

        return self._broadcasting_op(other, lambda: self.data - other.data, backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(g):
            return (g * other.data if self.requires_grad else None,
                    g * self.data if other.requires_grad else None)

        return self._broadcasting_op(other, lambda: self.data * other.data, backward)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(g):
            return (g / other.data if self.requires_grad else None,
                    -g * self.data / (other.data**2) if other.requires_grad else None)

        return self._broadcasting_op(other, lambda: self.data / other.data, backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self._unary_op(lambda: -self.data, lambda g: (-g,))

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutogradError("tensor exponents are unsupported; compose exp/log instead")
        exponent = float(exponent)

        return self._unary_op(lambda: self.data**exponent,
                              lambda g: (g * exponent * self.data ** (exponent - 1),))

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

            return self._binary_op(other, lambda: matrix @ other.data,
                                   lambda g: (None, matrix_t @ g))

        # A frozen right operand's adjoint multiplies by a C-contiguous copy
        # of its transpose, made once per op: BLAS's transposed-operand
        # kernel makes a row of dX depend on how many rows share the GEMM,
        # which a row-trimmed forward must not see (DESIGN.md, "Flow-trimmed
        # forward"). A trainable operand keeps the view of its current data.
        frozen_t = None
        if _GRAD_ENABLED[0] and self.requires_grad and not other.requires_grad:
            frozen_t = np.ascontiguousarray(other.data.T)

        def backward(g):
            # Guard each GEMM on the parent actually needing it: the first
            # GNN layer multiplies a constant feature matrix (N, F) with
            # F ≫ hidden, and the unused dX = g @ W.T would be the single
            # most expensive allocation of the whole backward pass.
            return (g @ (other.data.T if frozen_t is None else frozen_t)
                    if self.requires_grad else None,
                    self.data.T @ g if other.requires_grad else None)

        return self._binary_op(other, lambda: self.data @ other.data, backward)

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
        """An elementwise op: ``forward(x)`` returns ``(y, saved)`` and
        ``backward(g, saved)`` the gradient of ``x``.

        ``saved`` (the output, a mask, ...) lives in a cell the thunk
        refills, never on the output tensor: a closure over the tensor
        that owns it would be a reference cycle, and every tape would wait
        for the garbage collector.
        """
        saved = None

        def thunk():
            nonlocal saved
            out, saved = forward(self.data)
            return out

        return self._unary_op(thunk, lambda g: (backward(g, saved),))

    def exp(self) -> "Tensor":
        return self._pointwise(lambda x: (y := np.exp(x), y), lambda g, y: g * y)

    def log(self) -> "Tensor":
        return self._pointwise(lambda x: (np.log(x), x), lambda g, x: g / x)

    def sqrt(self) -> "Tensor":
        return self._pointwise(lambda x: (y := np.sqrt(x), y), lambda g, y: g * 0.5 / y)

    def tanh(self) -> "Tensor":
        return self._pointwise(lambda x: (y := np.tanh(x), y), lambda g, y: g * (1.0 - y**2))

    def sigmoid(self) -> "Tensor":
        return self._pointwise(lambda x: (y := _sigmoid(x), y), lambda g, y: g * y * (1.0 - y))

    def relu(self) -> "Tensor":
        return self._pointwise(lambda x: (x * (mask := x > 0), mask), lambda g, mask: g * mask)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        return self._pointwise(
            lambda x: (x * (factor := np.where(x > 0, 1.0, negative_slope)), factor),
            lambda g, factor: g * factor)

    def softplus(self) -> "Tensor":
        return self._pointwise(
            lambda x: (np.logaddexp(0.0, x),
                       1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))),
            lambda g, sig: g * sig)

    def abs(self) -> "Tensor":
        return self._pointwise(lambda x: (np.abs(x), np.sign(x)), lambda g, sign: g * sign)

    def clip(self, lo: float, hi: float) -> "Tensor":
        return self._pointwise(
            lambda x: (np.minimum(np.maximum(x, lo), hi), (x >= lo) & (x <= hi)),
            lambda g, mask: g * mask)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.shape
        kept = None            # the output's shape with the summed axes kept
        if axis is not None and not keepdims:
            summed = {a % self.ndim for a in (axis if isinstance(axis, tuple) else (axis,))}
            kept = tuple(1 if i in summed else s for i, s in enumerate(shape))

        def backward(g):
            grad = np.empty(shape)             # g, broadcast over the input
            grad[...] = g if kept is None else g.reshape(kept)
            return (grad,)

        return self._unary_op(lambda: np.add.reduce(self.data, axis=axis, keepdims=keepdims),
                              backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = None

        def forward():
            nonlocal data
            data = self.data.max(axis=axis, keepdims=keepdims)
            return data

        def backward(g):
            expanded = data if (keepdims or axis is None) else np.expand_dims(data, axis=axis)
            mask = self.data == expanded
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            grad = g if (keepdims or axis is None) else np.expand_dims(g, axis=axis)
            return (mask * grad / counts,)

        return self._unary_op(forward, backward)

    # ------------------------------------------------------------------
    # shape manipulation & indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._unary_op(lambda: self.data.reshape(shape), _ReshapeAdjoint(self.shape))

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        inverse = None if axes is None else tuple(np.argsort(axes))
        return self._unary_op(lambda: self.data.transpose(axes),
                              lambda g: (g.transpose(inverse),))

    def __getitem__(self, index) -> "Tensor":
        return self._unary_op(lambda: self.data[index], _IndexAdjoint(index, self.shape))

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
        num_rows = self.shape[0]
        if plan is not None:
            plan.check_shape(index.shape[0], num_rows)

        def backward(g):
            nonlocal plan
            if plan is None:                       # looked up once, then kept
                plan = plan_for(index, num_rows)
            return (_scatter_rows(g, index, num_rows, plan),)

        return self._unary_op(lambda: self.data[index], backward)

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
        return self._unary_op(lambda: _scatter_rows(self.data, index, num_rows, plan),
                              lambda g: (g[index],))


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
    coeff_shape = mask_shape = None
    scaled_ndim = h.ndim
    if coeff is not None:
        coeff_shape = coeff.shape + (1,) * (h.ndim - coeff.ndim)
        scaled_ndim = max(h.ndim, len(coeff_shape))
    if mask is not None:
        mask_shape = mask.shape + (1,) * (scaled_ndim - mask.ndim)
    src_plan = cache.src_plan if h.requires_grad else None
    base = scaled = coeff_b = mask_b = None

    def premask():
        nonlocal base, scaled, coeff_b
        base = scaled = h.data[src]
        if coeff is not None:
            coeff_b = coeff.data.reshape(coeff_shape)
            scaled = base * coeff_b

    def forward():
        nonlocal mask_b
        if upstream:
            premask()
        messages = scaled
        if mask is not None:
            mask_b = mask.data.reshape(mask_shape)
            messages = scaled * mask_b
        return _scatter_rows(messages, dst, num_rows, cache.dst_plan)

    def backward(g):
        g = g[dst]                                 # adjoint of the scatter
        h_grad = coeff_grad = mask_grad = None
        if mask is not None:
            if mask.requires_grad:
                mask_grad = _reduce(g * scaled, mask_sum)
            if upstream:
                g = g * mask_b
        if upstream:
            if coeff is not None:
                if coeff.requires_grad:
                    coeff_grad = _reduce(g * base, coeff_sum)
                g = g * coeff_b
            if h.requires_grad:
                # Adjoint of the gather: scatter back to the layer's input
                # rows, which a row-trimmed layer numbers apart from its
                # output rows.
                h_grad = _scatter_rows(g, src, src_plan.num_rows, src_plan)
        if coeff is None:
            return (h_grad,) if mask is None else (h_grad, mask_grad)
        return (h_grad, coeff_grad) if mask is None else (h_grad, coeff_grad, mask_grad)

    if not upstream:
        premask()                                  # frozen: once, off the tape
    out = Tensor._op(forward, parents, backward)
    # Each per-edge operand's gradient sums the messages' shape down to
    # its broadcast shape, then takes its own: resolved once, here.
    messages = (src.shape[0],) + out.shape[1:]
    mask_sum = coeff_sum = None
    if mask is not None:
        mask_sum = (_unbroadcast(messages, mask_shape) or ((), ()))[:2] + (mask.shape,)
    if coeff is not None:
        coeff_sum = (_unbroadcast(messages, coeff_shape) or ((), ()))[:2] + (coeff.shape,)
    return out


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


def _scatter_rows(values: np.ndarray, index: np.ndarray, num_rows: int,
                  plan: SegmentPlan | None) -> np.ndarray:
    """Segment-sum ``values`` rows by ``index`` via the kernel registry.

    Kernels operate on 2-D ``(A, W)`` payloads, so trailing axes are
    flattened around the dispatch and restored after. ``plan`` falls back
    to the identity-keyed ``plan_for`` memo, so repeated calls with the
    same index array (every epoch of a training loop) compile it once.
    """
    if plan is None:
        plan = plan_for(index, num_rows)
    tail = values.shape[1:]
    flat = values.reshape(values.shape[0], math.prod(tail))
    out = kernel("scatter_add")(plan, flat)
    return np.ascontiguousarray(out).reshape((num_rows,) + tail)


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

    return Tensor._op(lambda: np.concatenate([t.data for t in tensors], axis=axis),
                      tensors, lambda grad: tuple([grad[slicer] for slicer in slicers]))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]

    return Tensor._op(lambda: np.stack([t.data for t in tensors], axis=axis), tensors,
                      lambda grad: tuple([np.take(grad, i, axis=axis)
                                          for i in range(len(tensors))]))


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable selection ``condition ? a : b`` (condition is data)."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)

    def backward(grad):
        return (grad * condition if a.requires_grad else None,
                grad * (~condition) if b.requires_grad else None)

    return a._broadcasting_op(b, lambda: np.where(condition, a.data, b.data), backward)


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
