"""Receptive-field sampled explanation.

``repro.sampling`` decouples explanation cost from graph size: a
:class:`SampledExplainRuntime` extracts the L-hop in-subgraph of a node or
link target with :func:`~repro.graph.extract_receptive_field` (exact for
L-layer GNNs by the locality argument in DESIGN.md §13), runs any
registered explainer on that subgraph and lifts the scores back to global
ids — numerically identical to the full-graph path.
"""

from .runtime import SampledExplainRuntime, lift_explanation

__all__ = ["SampledExplainRuntime", "lift_explanation"]
