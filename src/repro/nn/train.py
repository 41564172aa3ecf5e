"""Training loops for node- and graph-classification GNNs.

The trainer reproduces the standard recipes the paper's target models use:
full-batch Adam for node classification (Planetoid-style splits) and
mini-batch Adam for graph classification, with early stopping on validation
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..autograd import Adam, cross_entropy, no_grad
from ..errors import ModelError
from ..graph import Graph, GraphBatch
from ..rng import ensure_rng
from ..sparse import sparse_cache
from .models import GNN

__all__ = ["TrainResult", "Trainer"]


@dataclass
class TrainResult:
    """Outcome of a training run."""

    train_acc: float
    val_acc: float
    test_acc: float
    epochs_run: int
    history: list[dict] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"TrainResult(train={self.train_acc:.3f}, val={self.val_acc:.3f}, "
            f"test={self.test_acc:.3f}, epochs={self.epochs_run})"
        )


def _accuracy(pred: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    if mask is not None:
        pred, labels = pred[mask], labels[mask]
    if labels.size == 0:
        return float("nan")
    return float((pred == labels).mean())


class Trainer:
    """Fits a :class:`GNN` to a dataset.

    Parameters
    ----------
    model:
        The model to train (modified in place).
    lr, weight_decay:
        Adam hyperparameters.
    epochs:
        Maximum epochs.
    patience:
        Early-stopping patience on validation accuracy; ``None`` disables.
    verbose:
        Print a progress line every ``log_every`` epochs.
    """

    def __init__(self, model: GNN, lr: float = 0.01, weight_decay: float = 5e-4,
                 epochs: int = 200, patience: int | None = 30,
                 verbose: bool = False, log_every: int = 20):
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
        self.epochs = epochs
        self.patience = patience
        self.verbose = verbose
        self.log_every = log_every

    # ------------------------------------------------------------------
    # node classification
    # ------------------------------------------------------------------
    def fit_node(self, graph: Graph) -> TrainResult:
        """Full-batch training on a node-classification graph with masks."""
        if self.model.task != "node":
            raise ModelError("fit_node requires a node-classification model")
        if not isinstance(graph.y, np.ndarray):
            raise ModelError("node classification requires per-node labels")
        if graph.train_mask is None:
            raise ModelError("graph is missing a train_mask")
        y = graph.y
        # Compile both scatter directions once, before the epoch loop:
        # forward_graph threads this cache into every layer, so each epoch's
        # forward (dst scatter) and backward (src scatter adjoint) dispatch
        # over the same plans through the kernel registry — no per-epoch
        # argsort, no serial np.add.at.
        cache = sparse_cache(graph)
        cache.src_plan
        best_val, best_state, bad_epochs = -1.0, None, 0
        history = []
        epochs_run = 0
        for epoch in range(self.epochs):
            epochs_run = epoch + 1
            self.model.train()
            self.optimizer.zero_grad()
            logits = self.model.forward_graph(graph)
            loss = cross_entropy(logits[graph.train_mask], y[graph.train_mask])
            loss.backward()
            self.optimizer.step()

            pred = logits.numpy().argmax(axis=-1)
            train_acc = _accuracy(pred, y, graph.train_mask)
            val_acc = _accuracy(pred, y, graph.val_mask) if graph.val_mask is not None else train_acc
            history.append({"epoch": epoch, "loss": loss.item(), "train_acc": train_acc,
                            "val_acc": val_acc})
            if self.verbose and epoch % self.log_every == 0:
                print(f"epoch {epoch:4d}  loss {loss.item():.4f}  "
                      f"train {train_acc:.3f}  val {val_acc:.3f}")

            # Ties refresh the stored weights (a later epoch with equal
            # validation accuracy usually has the better training fit) but
            # only strict improvement resets the patience counter.
            if val_acc >= best_val:
                if val_acc > best_val:
                    bad_epochs = 0
                best_val = val_acc
                best_state = self.model.state_dict()
            else:
                bad_epochs += 1
            if self.patience is not None and bad_epochs >= self.patience:
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)

        self.model.eval()
        pred = self.model.predict(graph)
        return TrainResult(
            train_acc=_accuracy(pred, y, graph.train_mask),
            val_acc=_accuracy(pred, y, graph.val_mask) if graph.val_mask is not None else float("nan"),
            test_acc=_accuracy(pred, y, graph.test_mask) if graph.test_mask is not None else float("nan"),
            epochs_run=epochs_run,
            history=history,
        )

    # ------------------------------------------------------------------
    # graph classification
    # ------------------------------------------------------------------
    def fit_graphs(self, graphs: Sequence[Graph], batch_size: int = 32,
                   val_fraction: float = 0.1, test_fraction: float = 0.1,
                   rng: int | np.random.Generator | None = None) -> TrainResult:
        """Mini-batch training on a graph-classification dataset."""
        if self.model.task != "graph":
            raise ModelError("fit_graphs requires a graph-classification model")
        rng = ensure_rng(rng)
        n = len(graphs)
        order = rng.permutation(n)
        n_test = max(1, int(n * test_fraction))
        n_val = max(1, int(n * val_fraction))
        test_idx = order[:n_test]
        val_idx = order[n_test:n_test + n_val]
        train_idx = order[n_test + n_val:]
        train_graphs = [graphs[i] for i in train_idx]
        val_graphs = [graphs[i] for i in val_idx]
        test_graphs = [graphs[i] for i in test_idx]

        best_val, best_state, bad_epochs = -1.0, None, 0
        history = []
        epochs_run = 0
        for epoch in range(self.epochs):
            epochs_run = epoch + 1
            self.model.train()
            epoch_loss = 0.0
            n_batches = 0
            for batch in GraphBatch.iter_minibatches(train_graphs, batch_size, rng=rng):
                self.optimizer.zero_grad()
                logits = self.model.forward_batch(batch)
                loss = cross_entropy(logits, batch.y)
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item()
                n_batches += 1

            val_acc = self.evaluate_graphs(val_graphs)
            history.append({"epoch": epoch, "loss": epoch_loss / max(n_batches, 1),
                            "val_acc": val_acc})
            if self.verbose and epoch % self.log_every == 0:
                print(f"epoch {epoch:4d}  loss {epoch_loss / max(n_batches, 1):.4f}  "
                      f"val {val_acc:.3f}")
            if val_acc >= best_val:
                if val_acc > best_val:
                    bad_epochs = 0
                best_val = val_acc
                best_state = self.model.state_dict()
            else:
                bad_epochs += 1
            if self.patience is not None and bad_epochs >= self.patience:
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)

        self.model.eval()
        return TrainResult(
            train_acc=self.evaluate_graphs(train_graphs),
            val_acc=self.evaluate_graphs(val_graphs),
            test_acc=self.evaluate_graphs(test_graphs),
            epochs_run=epochs_run,
            history=history,
        )

    def evaluate_graphs(self, graphs: Sequence[Graph], batch_size: int = 64) -> float:
        """Accuracy over a list of labelled graphs."""
        if not graphs:
            return float("nan")
        correct = 0
        with no_grad():
            for batch in GraphBatch.iter_minibatches(graphs, batch_size):
                logits = self.model.forward_batch(batch)
                pred = logits.numpy().argmax(axis=-1)
                correct += int((pred == batch.y).sum())
        return correct / len(graphs)
