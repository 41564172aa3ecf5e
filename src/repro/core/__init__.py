"""The paper's primary contribution: the Revelio flow explainer."""

from .link import LinkRevelio
from .optimize import LAYER_WEIGHT_ACTIVATIONS, MASK_ACTIVATIONS
from .preselect import (
    PRESELECT_STRATEGIES,
    gradient_flow_scores,
    preselect_flows,
    walk_weight_flow_scores,
)
from .revelio import Revelio
from .topk import TopKRevelio

__all__ = [
    "Revelio",
    "TopKRevelio",
    "LinkRevelio",
    "MASK_ACTIVATIONS",
    "LAYER_WEIGHT_ACTIVATIONS",
    "PRESELECT_STRATEGIES",
    "preselect_flows",
    "gradient_flow_scores",
    "walk_weight_flow_scores",
]
