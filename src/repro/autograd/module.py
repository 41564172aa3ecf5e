"""Module / Parameter abstractions mirroring the ``torch.nn`` surface.

:class:`Module` discovers parameters and sub-modules by attribute
inspection, supports ``train()``/``eval()`` modes, ``state_dict`` round
trips and recursive parameter iteration — everything the trainer and the
mask-learning explainers rely on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ModelError
from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable model state."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Parameter(shape={self.shape}{label})"


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`named_parameters` discover
    them recursively, including through plain lists of modules.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters (recursively)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules recursively."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # training state
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Set training mode recursively."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients on all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Disable gradient tracking on all parameters.

        Used on pretrained models before explanation so mask optimization
        never perturbs model weights.
        """
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        """Re-enable gradient tracking on all parameters."""
        for param in self.parameters():
            param.requires_grad = True
        return self

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name → array copy of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.shape:
                raise ModelError(
                    f"shape mismatch for {name!r}: expected {param.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
