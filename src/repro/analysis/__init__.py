"""Analysis utilities: method agreement, seed stability, flow mass."""

from .agreement import (
    agreement_matrix,
    edge_rank_correlation,
    top_edge_overlap,
    top_flow_overlap,
)
from .flow_stats import explanation_concentration, mass_through_nodes
from .stability import seed_stability

__all__ = [
    "edge_rank_correlation",
    "top_edge_overlap",
    "top_flow_overlap",
    "agreement_matrix",
    "seed_stability",
    "mass_through_nodes",
    "explanation_concentration",
]
