"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of this package with a single ``except`` clause,
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AutogradError(ReproError):
    """Raised for invalid operations on the autograd tape."""


class ShapeError(AutogradError):
    """Raised when tensor shapes are incompatible for an operation."""


class GraphError(ReproError):
    """Raised for malformed graph data (bad edge indices, shapes, masks)."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid generator parameters."""


class ModelError(ReproError):
    """Raised for invalid model configuration or usage."""


class FlowError(ReproError):
    """Raised for invalid message-flow enumeration requests."""


class ExplainerError(ReproError):
    """Raised for invalid explainer configuration or inputs."""


class EvaluationError(ReproError):
    """Raised for invalid evaluation requests (bad sparsity, empty sets)."""


class RunnerError(ReproError):
    """Raised for invalid experiment plans or unknown job kinds."""


class CheckError(ReproError):
    """Raised for invalid static-analysis requests (unknown rule codes)."""


class KernelError(ReproError):
    """Raised for invalid sparse-kernel registry requests (unknown ops or
    backends, mismatched scatter plans)."""


class ServeError(ReproError):
    """Raised by the serving daemon: malformed requests, backpressure
    rejections, and submissions against a draining server."""
