"""Graph data structures and utilities (the PyG ``Data`` substitute)."""

from .batch import GraphBatch
from .data import Graph
from .generators import (
    balanced_tree_edges,
    barabasi_albert_edges,
    cycle_edges,
    erdos_renyi_edges,
    house_motif_edges,
    sbm_edges,
)
from .io import load_state_dict, save_state_dict
from .sampled import SampledSubgraph, extract_receptive_field
from .utils import coalesce_edges, sparse_cache

__all__ = [
    "Graph",
    "GraphBatch",
    "coalesce_edges",
    "sparse_cache",
    "SampledSubgraph",
    "extract_receptive_field",
    "save_state_dict",
    "load_state_dict",
    "barabasi_albert_edges",
    "balanced_tree_edges",
    "erdos_renyi_edges",
    "sbm_edges",
    "cycle_edges",
    "house_motif_edges",
]
