"""Dense neural-network building blocks (Linear, MLP, activations).

These are the non-graph layers used inside GNN convolutions (GIN's MLP,
GAT's attention projections) and inside the parameterized explainers
(PGExplainer's edge-scoring MLP, GraphMask's gate networks).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import AutogradError
from ..rng import ensure_rng
from .init import glorot_uniform, zeros
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Sigmoid", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Seed or generator for Glorot initialization.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Elementwise logistic function."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class MLP(Module):
    """Multi-layer perceptron with ReLU between hidden layers.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[16, 32, 1]``.
    rng:
        Seed or generator shared across the layers.
    final_activation:
        Optional module applied after the last linear layer.
    """

    def __init__(self, dims: list[int], rng: int | np.random.Generator | None = None,
                 final_activation: Module | None = None):
        super().__init__()
        if len(dims) < 2:
            raise AutogradError("MLP needs at least input and output dims")
        rng = ensure_rng(rng)
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
        if final_activation is not None:
            layers.append(final_activation)
        self.layers = layers

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        # Keep the ``net.layers.<i>`` names of the nested layout the model
        # zoo's cached checkpoints were saved under.
        return super().named_parameters(prefix=f"{prefix}net.")

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
