"""Link prediction substrate.

The paper positions message-passing GNNs as serving node classification,
graph classification *and link prediction* (§II, [55]); its evaluation
covers the first two. This module supplies the third task so flow
explanations of predicted links (see :class:`repro.core.LinkRevelio`) have
a target: a GNN encoder with a dot-product decoder, trained with negative
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import Adam, Module, Tensor, no_grad
from ..errors import ModelError
from ..graph import Graph
from ..rng import ensure_rng
from ..sparse import feature_dense, sparse_cache
from .gat import GATConv
from .gcn import GCNConv
from .gin import GINConv
from .models import CONV_TYPES, LayerTrim, run_convs

__all__ = ["LinkPredictor", "LinkTrainResult", "train_link_predictor",
           "sample_negative_edges"]


class LinkPredictor(Module):
    """GNN encoder + dot-product decoder for edge scoring.

    ``score(u, v) = σ(z_u · z_v)`` where ``z`` are the encoder's final
    node embeddings. The encoder layers accept the same per-layer edge
    masks as the classification models, which is what makes flow
    explanation of a link possible.

    Parameters
    ----------
    conv:
        ``"gcn"``, ``"gin"`` or ``"gat"``.
    in_features, hidden:
        Input width and embedding width.
    num_layers:
        Encoder depth (default 3, matching the paper's targets).
    """

    def __init__(self, conv: str, in_features: int, hidden: int,
                 num_layers: int = 3, heads: int = 4,
                 rng: int | np.random.Generator | None = None):
        super().__init__()
        if conv not in CONV_TYPES:
            raise ModelError(f"unknown conv type {conv!r}; expected one of {CONV_TYPES}")
        rng = ensure_rng(rng)
        self.conv_name = conv
        self.in_features = in_features
        self.hidden = hidden
        self.num_layers = num_layers
        self.task = "link"

        self.convs = []
        dims = [in_features] + [hidden] * num_layers
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            if conv == "gcn":
                self.convs.append(GCNConv(d_in, d_out, rng=rng))
            elif conv == "gin":
                self.convs.append(GINConv(d_in, d_out, rng=rng))
            else:
                if hidden % heads != 0:
                    raise ModelError(f"hidden={hidden} must divide heads={heads}")
                self.convs.append(GATConv(d_in, hidden // heads, heads=heads, rng=rng))

    # ------------------------------------------------------------------
    def encode(self, graph: Graph, edge_masks: list[Tensor] | None = None,
               trim: LayerTrim | None = None) -> Tensor:
        """Node embeddings ``(N, hidden)`` under optional layer masks.

        ``trim`` runs the masked forward of one explanation, as in
        :meth:`GNN.forward <repro.nn.GNN.forward>`: the embeddings are
        then the rows of ``trim.rows[-1]`` alone.
        """
        if edge_masks is not None and len(edge_masks) != self.num_layers:
            raise ModelError(f"expected {self.num_layers} edge masks, got {len(edge_masks)}")
        # Thread the graph-attached cache (like the classification models)
        # rather than letting each conv fall back to the bare-array memo:
        # sampled subgraphs preload this cache's degree vector with the
        # full graph's values, which is what makes the local forward exact.
        return run_convs(self.convs, Tensor(feature_dense(graph.x)), graph.edge_index,
                         graph.num_nodes, edge_masks, sparse_cache(graph), trim)[-1]

    def link_logits(self, graph: Graph, pairs: np.ndarray,
                    edge_masks: list[Tensor] | None = None,
                    trim: LayerTrim | None = None) -> Tensor:
        """Raw dot-product scores for node ``pairs`` of shape ``(P, 2)``.

        With a ``trim``, both endpoints of each pair must be rows it
        computes.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        z = self.encode(graph, edge_masks=edge_masks, trim=trim)
        if trim is not None:
            pairs = trim.row(pairs)
        return (z.gather_rows(pairs[:, 0]) * z.gather_rows(pairs[:, 1])).sum(axis=1)

    def forward(self, graph: Graph, pairs: np.ndarray,
                edge_masks: list[Tensor] | None = None) -> Tensor:
        return self.link_logits(graph, pairs, edge_masks=edge_masks)

    def predict_proba(self, graph: Graph, pairs: np.ndarray) -> np.ndarray:
        """Link probabilities for ``pairs``, shape ``(P,)``."""
        with no_grad():
            return self.link_logits(graph, pairs).sigmoid().numpy().copy()

    def __repr__(self) -> str:
        return (f"LinkPredictor(conv={self.conv_name!r}, layers={self.num_layers}, "
                f"hidden={self.hidden})")


def sample_negative_edges(graph: Graph, num: int,
                          rng: int | np.random.Generator | None = 0) -> np.ndarray:
    """Sample ``num`` node pairs that are not edges (and not self-pairs)."""
    rng = ensure_rng(rng)
    existing = set(zip(graph.src.tolist(), graph.dst.tolist()))
    out = []
    attempts = 0
    while len(out) < num and attempts < 100 * (num + 1):
        attempts += 1
        u, v = rng.integers(graph.num_nodes, size=2)
        if u != v and (int(u), int(v)) not in existing:
            out.append((int(u), int(v)))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


@dataclass
class LinkTrainResult:
    """Outcome of link-predictor training."""

    train_auc: float
    test_auc: float
    epochs_run: int

    def __repr__(self) -> str:
        return (f"LinkTrainResult(train_auc={self.train_auc:.3f}, "
                f"test_auc={self.test_auc:.3f}, epochs={self.epochs_run})")


def train_link_predictor(model: LinkPredictor, graph: Graph, epochs: int = 100,
                         lr: float = 0.01, test_fraction: float = 0.15,
                         rng: int | np.random.Generator | None = 0,
                         verbose: bool = False) -> LinkTrainResult:
    """Train with negative sampling; held-out positive edges score test AUC.

    Held-out edges are removed from the message-passing graph during both
    training and evaluation (the standard transductive split).
    """
    from ..eval.auc import roc_auc

    rng = ensure_rng(rng)
    num_test = max(1, int(graph.num_edges * test_fraction))
    order = rng.permutation(graph.num_edges)
    test_edges = order[:num_test]
    keep = np.ones(graph.num_edges, dtype=bool)
    keep[test_edges] = False
    train_graph = graph.with_edges(keep)

    test_pos = graph.edge_index[:, test_edges].T
    test_neg = sample_negative_edges(graph, num_test, rng=rng)

    train_pos_all = train_graph.edge_index.T
    optimizer = Adam(model.parameters(), lr=lr)
    epochs_run = 0
    for epoch in range(epochs):
        epochs_run = epoch + 1
        optimizer.zero_grad()
        n_pos = min(256, train_pos_all.shape[0])
        pos = train_pos_all[rng.choice(train_pos_all.shape[0], n_pos, replace=False)]
        neg = sample_negative_edges(train_graph, n_pos, rng=rng)
        pairs = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

        logits = model.link_logits(train_graph, pairs)
        probs = logits.sigmoid().clip(1e-12, 1 - 1e-12)
        loss = -(Tensor(labels) * probs.log()
                 + Tensor(1.0 - labels) * (1.0 - probs).log()).mean()
        loss.backward()
        optimizer.step()
        if verbose and epoch % 20 == 0:
            print(f"epoch {epoch:4d}  loss {loss.item():.4f}")

    model.eval()
    n_tr = min(512, len(train_pos_all))
    train_pairs = np.concatenate([
        train_pos_all[:n_tr], sample_negative_edges(train_graph, n_tr, rng=rng)
    ])
    train_scores = model.predict_proba(train_graph, train_pairs)
    train_labels = np.concatenate([np.ones(n_tr), np.zeros(n_tr)])
    test_pairs = np.concatenate([test_pos, test_neg])
    test_labels = np.concatenate([np.ones(len(test_pos)), np.zeros(len(test_neg))])
    test_scores = model.predict_proba(train_graph, test_pairs)
    return LinkTrainResult(
        train_auc=roc_auc(train_labels.astype(bool), train_scores),
        test_auc=roc_auc(test_labels.astype(bool), test_scores),
        epochs_run=epochs_run,
    )
