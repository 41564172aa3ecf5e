"""Datasets: the paper's synthetic benchmarks and offline surrogates."""

from .base import GraphDataset, NodeDataset
from .citation import citeseer, cora, pubmed
from .molecules import bbbp, mutag
from .registry import DATASET_NAMES, dataset_task, default_scale, load_dataset
from .synthetic import ba_2motifs, ba_shapes, tree_cycles

__all__ = [
    "NodeDataset",
    "GraphDataset",
    "load_dataset",
    "DATASET_NAMES",
    "dataset_task",
    "default_scale",
    "cora",
    "citeseer",
    "pubmed",
    "mutag",
    "bbbp",
    "ba_shapes",
    "tree_cycles",
    "ba_2motifs",
]
