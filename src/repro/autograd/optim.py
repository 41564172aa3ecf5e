"""The first-order optimizer (Adam).

Both the GNN trainer and every mask-learning explainer (Revelio,
GNNExplainer, PGExplainer, GraphMask, FlowX stage 2) drive it. The paper
uses Adam with the learning rates recorded in its Section V-A.
"""

from __future__ import annotations

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
    every entry gets the bits a per-parameter update would give it. After
    a step each parameter's ``.data`` is a new view into the new buffer
    (arrays are replaced, never written in place); a parameter whose
    ``.data`` was reassigned since is read back into the buffer.
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
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._grad = np.zeros(size)
        self._grads = [self._grad[span].reshape(shape) for span, shape in self._spans]
        self._data = np.zeros(size)
        self._views: list[np.ndarray | None] = [None] * len(self.params)
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update using accumulated gradients.

        A parameter without a gradient is skipped: its entries of the
        moment estimates and of ``.data`` keep their values.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        data, m, v = self._data, self._m, self._v
        skipped = []
        for i, param in enumerate(self.params):
            span, shape = self._spans[i]
            if param.data is not self._views[i]:
                if data is self._data:
                    data = data.copy()             # never write into handed-out views
                data[span].reshape(shape)[...] = param.data
            if param.grad is None:
                skipped.append((span, m[span].copy(), v[span].copy(), data[span].copy()))
                self._grads[i][...] = 0.0
            else:
                self._grads[i][...] = param.grad
        grad = self._grad
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        data = self._data = data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for span, m_kept, v_kept, data_kept in skipped:
            m[span], v[span], data[span] = m_kept, v_kept, data_kept
        for i, param in enumerate(self.params):
            span, shape = self._spans[i]
            param.data = self._views[i] = data[span].reshape(shape)
