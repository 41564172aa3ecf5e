"""Message-passing GNN layers, models and training (the PyG substitute)."""

from .gat import GATConv
from .gcn import GCNConv
from .gin import GINConv
from .link_prediction import (
    LinkPredictor,
    sample_negative_edges,
    train_link_predictor,
)
from .message_passing import GraphConv, augment_edges, num_layer_edges
from .models import CONV_TYPES, GNN, LayerTrim, build_model
from .pooling import global_max_pool, global_mean_pool, global_sum_pool
from .train import TrainResult, Trainer
from .zoo import RECIPES, TrainRecipe, get_model

__all__ = [
    "GraphConv",
    "GCNConv",
    "GINConv",
    "GATConv",
    "augment_edges",
    "num_layer_edges",
    "GNN",
    "LayerTrim",
    "build_model",
    "CONV_TYPES",
    "global_mean_pool",
    "global_sum_pool",
    "global_max_pool",
    "Trainer",
    "TrainResult",
    "get_model",
    "RECIPES",
    "TrainRecipe",
    "LinkPredictor",
    "train_link_predictor",
    "sample_negative_edges",
]
