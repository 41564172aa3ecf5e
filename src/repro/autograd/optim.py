"""The first-order optimizer (Adam).

Both the GNN trainer and every mask-learning explainer (Revelio,
GNNExplainer, PGExplainer, GraphMask, FlowX stage 2) drive it. The paper
uses Adam with the learning rates recorded in its Section V-A.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

import numpy as np

from ..errors import AutogradError
from .tensor import Tensor

__all__ = ["Adam"]


class Optimizer:
    """Base optimizer tracking a list of tensors with gradients."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params = [p for p in params]
        if not self.params:
            raise AutogradError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients on all tracked tensors."""
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


#: Each parameter's segment of Adam's flat buffers starts on a multiple of
#: this many elements (64 bytes), so a parameter's data stays as aligned
#: as an array of its own.
_ALIGN = 8


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with decoupled weight decay off.

    Matches the defaults used by PyTorch: betas (0.9, 0.999), eps 1e-8.

    Every parameter lives in one flat buffer, and so do the gradients and
    both moment estimates: a step is one set of elementwise numpy ops over
    all parameters, not one set per parameter. Each op is elementwise, so
    every entry gets the bits a per-parameter update would give it.

    The buffers are allocated once and updated in place. From
    construction on, each parameter's ``.data`` is one fixed view into the
    flat data buffer — so a compiled tape that reads it stays bound across
    steps — and a step overwrites it: a caller that keeps ``param.data``
    across a step copies it. A parameter whose ``.data`` was reassigned
    since is read back into the buffer and gets its view again.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        # Parameter i's entries of every flat buffer: flat[span].reshape(shape).
        self._spans = []
        size = 0
        for param in self.params:
            self._spans.append((slice(size, size + param.data.size), param.shape))
            size += -(-param.data.size // _ALIGN) * _ALIGN
        m, v = self._m, self._v = np.zeros(size), np.zeros(size)
        grad = self._grad = np.zeros(size)
        data = self._data = np.zeros(size)
        self._grads = [grad[span].reshape(shape) for span, shape in self._spans]
        self._views = [data[span].reshape(shape) for span, shape in self._spans]
        for param, view in zip(self.params, self._views):
            view[...] = param.data
            param.data = view
        # m ← β1·m + (1−β1)·g and v ← β2·v + (1−β2)·g·g, as calls bound to
        # the buffers once; ``hat`` and ``step`` hold m̂ and v̂.
        scratch, hat, step = np.empty(size), np.empty(size), np.empty(size)
        self._hat, self._step = hat, step
        self._moments = (partial(np.multiply, m, self.beta1, m),
                         partial(np.multiply, 1.0 - self.beta1, grad, scratch),
                         partial(np.add, m, scratch, m),
                         partial(np.multiply, v, self.beta2, v),
                         partial(np.multiply, 1.0 - self.beta2, grad, scratch),
                         partial(np.multiply, scratch, grad, scratch),
                         partial(np.add, v, scratch, v))
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update using accumulated gradients, in place.

        A parameter without a gradient is skipped: its entries of the
        moment estimates and of ``.data`` keep their values.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        data, m, v, hat, step = self._data, self._m, self._v, self._hat, self._step
        skipped = []
        for param, view, grad, (span, _) in zip(self.params, self._views, self._grads,
                                                self._spans):
            if param.data is not view:
                view[...] = param.data
                param.data = view
            if param.grad is None:
                skipped.append((span, m[span].copy(), v[span].copy(), data[span].copy()))
                grad.fill(0.0)
            else:
                grad[...] = param.grad
        if self.weight_decay:
            np.add(self._grad, np.multiply(self.weight_decay, data), self._grad)
        for moment in self._moments:
            moment()
        # data ← data − lr·m̂ / (√v̂ + eps)
        np.divide(m, bias1, hat)
        np.divide(v, bias2, step)
        np.multiply(self.lr, hat, hat)
        np.sqrt(step, step)
        np.add(step, self.eps, step)
        np.divide(hat, step, hat)
        np.subtract(data, hat, data)
        for span, m_kept, v_kept, data_kept in skipped:
            m[span], v[span], data[span] = m_kept, v_kept, data_kept
