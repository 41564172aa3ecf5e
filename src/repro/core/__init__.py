"""The paper's primary contribution: the Revelio flow explainer."""

from .link import LinkRevelio
from .optimize import LAYER_WEIGHT_ACTIVATIONS, MASK_ACTIVATIONS
from .preselect import PRESELECT_STRATEGIES, preselect_flows
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
]
