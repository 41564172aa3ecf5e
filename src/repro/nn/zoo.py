"""Pretrained-model zoo: per-dataset training recipes with disk caching.

Table III of the paper reports the accuracy of the GCN/GIN/GAT targets on
every dataset; explanation experiments then reuse those pretrained models.
This module reproduces that workflow: :func:`get_model` trains (or loads a
cached copy of) the target model for a ``(dataset, conv)`` pair using a
per-dataset recipe tuned so the targets reach comparable accuracy on the
surrogate datasets.

Cache location: ``$REPRO_CACHE`` or ``~/.cache/repro-revelio``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..datasets import GraphDataset, NodeDataset, load_dataset
from ..errors import ModelError
from ..graph import load_state_dict, save_state_dict
from ..obs import span
from ..obs.names import SPAN_MODEL_TRAIN
from ..sparse import sparse_cache
from .models import GNN, build_model
from .train import Trainer, TrainResult

__all__ = ["TrainRecipe", "RECIPES", "get_model", "cache_dir"]


@dataclass(frozen=True)
class TrainRecipe:
    """Hyperparameters for training one dataset's target models."""

    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int | None = 30
    batch_size: int = 256  # graph tasks; large = effectively full batch
    hidden: int = 32


RECIPES: dict[str, TrainRecipe] = {
    "cora": TrainRecipe(lr=0.01, weight_decay=5e-4, epochs=200, patience=30),
    "citeseer": TrainRecipe(lr=0.01, weight_decay=5e-4, epochs=200, patience=30),
    "pubmed": TrainRecipe(lr=0.01, weight_decay=5e-4, epochs=200, patience=30),
    # Constant-feature synthetics need long schedules without weight decay:
    # the class signal is purely structural and has a small margin.
    "ba_shapes": TrainRecipe(lr=0.02, weight_decay=0.0, epochs=1000, patience=None),
    "tree_cycles": TrainRecipe(lr=0.02, weight_decay=0.0, epochs=600, patience=None),
    "ba_2motifs": TrainRecipe(lr=0.05, weight_decay=0.0, epochs=1500, patience=None),
    "mutag": TrainRecipe(lr=0.02, weight_decay=0.0, epochs=300, patience=60),
    "bbbp": TrainRecipe(lr=0.02, weight_decay=0.0, epochs=300, patience=60),
}


def cache_dir() -> Path:
    """Directory for cached model checkpoints."""
    root = os.environ.get("REPRO_CACHE")
    path = Path(root) if root else Path.home() / ".cache" / "repro-revelio"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cache_key(dataset_name: str, conv: str, scale: float, seed: int, recipe: TrainRecipe) -> str:
    payload = json.dumps(
        {"dataset": dataset_name, "conv": conv, "scale": scale, "seed": seed,
         "recipe": vars(recipe) | {}, "hidden": recipe.hidden},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def train_target_model(dataset: NodeDataset | GraphDataset, conv: str,
                       recipe: TrainRecipe | None = None,
                       seed: int = 0, verbose: bool = False) -> tuple[GNN, TrainResult]:
    """Train a fresh target model for ``dataset`` with its recipe."""
    recipe = recipe or RECIPES.get(dataset.name, TrainRecipe())
    model = build_model(conv, dataset.task, dataset.num_features, dataset.num_classes,
                        hidden=recipe.hidden, rng=seed)
    trainer = Trainer(model, lr=recipe.lr, weight_decay=recipe.weight_decay,
                      epochs=recipe.epochs, patience=recipe.patience, verbose=verbose)
    if dataset.task == "node":
        # Warm the per-graph scatter plans (both directions) up front so
        # every training epoch dispatches over the compiled structures; the
        # same cache object then serves the explainers downstream.
        sparse_cache(dataset.graph).src_plan
        result = trainer.fit_node(dataset.graph)
    else:
        result = trainer.fit_graphs(dataset.graphs, batch_size=recipe.batch_size, rng=seed)
    model.eval()
    return model, result


def get_model(dataset_name: str, conv: str, scale: float | None = None, seed: int = 0,
              use_cache: bool = True, verbose: bool = False,
              dataset: NodeDataset | GraphDataset | None = None) -> tuple[GNN, NodeDataset | GraphDataset, TrainResult | None]:
    """Return ``(model, dataset, train_result)`` for a (dataset, conv) pair.

    Loads a cached checkpoint when available; otherwise trains with the
    dataset's recipe and caches the result. ``train_result`` is ``None``
    on a cache hit (accuracy is stored alongside the checkpoint in JSON).

    Parameters
    ----------
    dataset_name, conv:
        Registry dataset name and ``"gcn"``/``"gin"``/``"gat"``.
    scale, seed:
        Dataset generation parameters (``scale=None`` → ``REPRO_SCALE``).
    use_cache:
        Set ``False`` to force retraining.
    dataset:
        Pass an already-built dataset to skip regeneration (must match the
        name/scale/seed used for the cache key).
    """
    if conv == "gat" and dataset_name in ("ba_shapes", "tree_cycles", "ba_2motifs"):
        raise ModelError(f"GAT is N/A on synthetic dataset {dataset_name} (paper Table III)")
    if dataset is None:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    if scale is None:
        from ..datasets import default_scale
        scale = default_scale()
    recipe = RECIPES.get(dataset_name, TrainRecipe())
    key = _cache_key(dataset_name, conv, scale, seed, recipe)
    ckpt = cache_dir() / f"{dataset_name}_{conv}_{key}.npz"

    model = build_model(conv, dataset.task, dataset.num_features, dataset.num_classes,
                        hidden=recipe.hidden, rng=seed)
    if use_cache and ckpt.exists():
        try:
            model.load_state_dict(load_state_dict(ckpt))
        except ModelError:
            # Saved under another parameter layout (a renamed or re-nested
            # layer): a cache miss, retrained and overwritten below.
            pass
        else:
            model.eval()
            return model, dataset, None

    with span(SPAN_MODEL_TRAIN, dataset=dataset_name, conv=conv) as sp:
        model, result = train_target_model(dataset, conv, recipe=recipe, seed=seed,
                                           verbose=verbose)
        if sp is not None:
            sp.set(epochs_run=result.epochs_run)
    if use_cache:
        save_state_dict(model.state_dict(), ckpt)
        meta_path = ckpt.with_suffix(".json")
        meta_path.write_text(json.dumps({
            "dataset": dataset_name, "conv": conv, "scale": scale, "seed": seed,
            "train_acc": result.train_acc, "val_acc": result.val_acc,
            "test_acc": result.test_acc, "epochs_run": result.epochs_run,
        }, indent=2))
    return model, dataset, result
