"""Reverse-mode automatic differentiation on numpy.

This subpackage replaces the PyTorch dependency of the original Revelio
implementation: a tape-based :class:`Tensor`, dense layers, Adam and
functional ops sufficient for message-passing GNNs and mask-learning
explainers. See ``DESIGN.md`` §2 for the substitution rationale.
"""

from .functional import cross_entropy, log_softmax, segment_softmax, softmax, spmm
from .layers import MLP, Linear, Sigmoid
from .module import Module, Parameter
from .optim import Adam
from .tensor import SparseLeaf, Tape, Tensor, as_tensor, concat, no_grad, propagate

__all__ = [
    "Tensor",
    "SparseLeaf",
    "Tape",
    "as_tensor",
    "concat",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sigmoid",
    "Adam",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "segment_softmax",
    "spmm",
    "propagate",
]
