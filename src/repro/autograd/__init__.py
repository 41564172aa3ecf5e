"""Reverse-mode automatic differentiation on numpy.

This subpackage replaces the PyTorch dependency of the original Revelio
implementation: a tape-based :class:`Tensor`, dense layers, optimizers and
functional ops sufficient for message-passing GNNs and mask-learning
explainers. See ``DESIGN.md`` §2 for the substitution rationale.
"""

from .functional import (
    binary_cross_entropy,
    cross_entropy,
    dropout,
    log_softmax,
    nll_loss,
    one_hot,
    segment_softmax,
    softmax,
    spmm,
)
from .grad_check import check_gradients, numerical_grad
from .layers import MLP, LayerNorm, Linear, ReLU, Sequential, Sigmoid, Tanh
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer
from .schedulers import CosineAnnealingLR, LinearWarmup, Scheduler, StepLR
from .tensor import (
    Tape,
    Tensor,
    as_tensor,
    concat,
    is_grad_enabled,
    no_grad,
    propagate,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "Tape",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "Scheduler",
    "StepLR",
    "CosineAnnealingLR",
    "LinearWarmup",
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "binary_cross_entropy",
    "segment_softmax",
    "spmm",
    "propagate",
    "dropout",
    "one_hot",
    "numerical_grad",
    "check_gradients",
]
