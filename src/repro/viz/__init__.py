"""Visualization: flow tables, ASCII subgraph rendering, curve charts."""

from .ascii import explanation_summary, render_explanation
from .curves import render_curves
from .flows_table import format_flow_comparison, format_top_flows

__all__ = [
    "format_top_flows",
    "format_flow_comparison",
    "render_explanation",
    "explanation_summary",
    "render_curves",
]
