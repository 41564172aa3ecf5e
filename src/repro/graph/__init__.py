"""Graph data structures and utilities (the PyG ``Data`` substitute)."""

from .batch import GraphBatch
from .data import Graph
from .generators import (
    balanced_tree_edges,
    barabasi_albert_edges,
    cycle_edges,
    erdos_renyi_edges,
    house_motif_edges,
    path_edges,
    sbm_edges,
)
from .io import load_graph, load_state_dict, save_graph, save_state_dict
from .transforms import (
    add_noise_edges,
    drop_edges,
    perturb_features,
    shuffle_labels,
    zero_features,
)
from .sampled import SampledSubgraph, extract_receptive_field, khop_in_nodes
from .utils import (
    add_reverse_edges,
    coalesce_edges,
    connected_components,
    edge_list,
    from_networkx,
    induced_subgraph,
    sparse_cache,
    to_csr,
    to_networkx,
    to_undirected,
)

__all__ = [
    "Graph",
    "GraphBatch",
    "coalesce_edges",
    "sparse_cache",
    "to_csr",
    "to_undirected",
    "add_reverse_edges",
    "SampledSubgraph",
    "extract_receptive_field",
    "khop_in_nodes",
    "induced_subgraph",
    "connected_components",
    "edge_list",
    "from_networkx",
    "to_networkx",
    "save_graph",
    "load_graph",
    "save_state_dict",
    "load_state_dict",
    "barabasi_albert_edges",
    "balanced_tree_edges",
    "erdos_renyi_edges",
    "sbm_edges",
    "cycle_edges",
    "path_edges",
    "house_motif_edges",
    "add_noise_edges",
    "drop_edges",
    "perturb_features",
    "zero_features",
    "shuffle_labels",
]
