"""Checkpoint serialization round trips."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import load_state_dict, save_state_dict


class TestStateDictIO:
    def test_roundtrip(self, tmp_path):
        state = {"layer.weight": np.ones((3, 2)), "layer.bias": np.zeros(2)}
        save_state_dict(state, tmp_path / "m.npz")
        back = load_state_dict(tmp_path / "m.npz")
        assert set(back) == set(state)
        assert np.allclose(back["layer.weight"], state["layer.weight"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_state_dict(tmp_path / "nope.npz")

    def test_model_roundtrip(self, tmp_path):
        from repro.nn import build_model

        model = build_model("gcn", "node", 4, 2, hidden=8, rng=0)
        save_state_dict(model.state_dict(), tmp_path / "model.npz")
        twin = build_model("gcn", "node", 4, 2, hidden=8, rng=99)
        twin.load_state_dict(load_state_dict(tmp_path / "model.npz"))
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), twin.named_parameters()):
            assert n1 == n2
            assert np.allclose(p1.numpy(), p2.numpy())
