"""Model zoo: recipes, caching, compatibility guards."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graph import load_state_dict, save_state_dict
from repro.nn import RECIPES, get_model
from repro.nn.zoo import train_target_model
from repro.nn.zoo import TrainRecipe, cache_dir


class TestRecipes:
    def test_all_datasets_have_recipes(self):
        from repro.datasets import DATASET_NAMES

        for name in DATASET_NAMES:
            assert name in RECIPES

    def test_synthetics_disable_weight_decay(self):
        assert RECIPES["ba_shapes"].weight_decay == 0.0
        assert RECIPES["ba_2motifs"].weight_decay == 0.0


class TestGetModel:
    def test_trains_and_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        model1, ds1, result1 = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        assert result1 is not None  # freshly trained
        ckpts = list(tmp_path.glob("tree_cycles_gcn_*.npz"))
        assert len(ckpts) == 1

        model2, ds2, result2 = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        assert result2 is None  # cache hit
        assert np.allclose(model1.head.weight.numpy(), model2.head.weight.numpy())

    def test_a_checkpoint_of_another_layout_is_a_cache_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        cold, _, _ = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        ckpt = next(tmp_path.glob("tree_cycles_gcn_*.npz"))
        # The same weights under renamed parameters, as a checkpoint saved
        # before a layer attribute was renamed would hold them.
        save_state_dict({f"old_{name}": value for name, value in cold.state_dict().items()},
                        ckpt)
        model, _, result = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        assert result is not None                 # retrained, not a ModelError
        expected = cold.state_dict()
        assert {name: value.tobytes() for name, value in model.state_dict().items()} \
            == {name: value.tobytes() for name, value in expected.items()}
        assert set(load_state_dict(ckpt)) == set(expected)   # overwritten
        _, _, again = get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        assert again is None

    def test_cache_key_depends_on_scale(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        get_model("tree_cycles", "gcn", scale=0.14, seed=0)
        assert len(list(tmp_path.glob("tree_cycles_gcn_*.npz"))) == 2

    def test_no_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        _, _, result = get_model("tree_cycles", "gcn", scale=0.12, seed=0, use_cache=False)
        assert result is not None
        assert not list(tmp_path.glob("*.npz"))

    def test_gat_rejected_on_synthetics(self):
        with pytest.raises(ModelError):
            get_model("ba_shapes", "gat", scale=0.12)

    def test_metadata_written(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        get_model("tree_cycles", "gcn", scale=0.12, seed=0)
        meta_file = next(tmp_path.glob("tree_cycles_gcn_*.json"))
        meta = json.loads(meta_file.read_text())
        assert meta["dataset"] == "tree_cycles"
        assert "test_acc" in meta

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "sub"))
        assert cache_dir() == tmp_path / "sub"
        assert cache_dir().exists()


class TestTrainTarget:
    def test_custom_recipe(self):
        from repro.datasets import tree_cycles

        ds = tree_cycles(scale=0.12, seed=0)
        model, result = train_target_model(ds, "gcn",
                                           recipe=TrainRecipe(epochs=5, patience=None))
        assert result.epochs_run == 5
        assert model.task == "node"

    def test_graph_task(self):
        from repro.datasets import mutag

        ds = mutag(scale=0.12, seed=0)
        model, result = train_target_model(ds, "gin",
                                           recipe=TrainRecipe(epochs=5, patience=None))
        assert model.task == "graph"
