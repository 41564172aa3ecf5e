"""Seeded-RNG helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro import ReproError
from repro.errors import (
    AutogradError,
    DatasetError,
    EvaluationError,
    ExplainerError,
    FlowError,
    GraphError,
    ModelError,
    ShapeError,
)
from repro.rng import DEFAULT_SEED, ensure_rng


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        assert ensure_rng(5).integers(1000) == ensure_rng(5).integers(1000)

    def test_none_uses_default_seed(self):
        assert ensure_rng(None).integers(1000) == ensure_rng(DEFAULT_SEED).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        AutogradError, ShapeError, GraphError, DatasetError,
        ModelError, FlowError, ExplainerError, EvaluationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_shape_error_is_autograd_error(self):
        assert issubclass(ShapeError, AutogradError)

    def test_single_catch_all(self):
        """A caller can catch everything from the library in one clause."""
        from repro.flows import enumerate_flows
        from repro.graph import Graph

        g = Graph(edge_index=np.array([[0], [1]]), x=np.ones((2, 1)))
        with pytest.raises(ReproError):
            enumerate_flows(g, 0)
