"""Route any registered explainer through a sampled receptive field.

:class:`SampledExplainRuntime` makes graph size and explanation cost
independent: it extracts the target's L-hop receptive field once, runs
the *unchanged* explainer on the compact relabeled subgraph, and lifts every
score space of the resulting :class:`~repro.explain.base.Explanation`
back to global ids. By the locality argument (DESIGN.md §13) the result
is numerically identical to the full-graph path — a property the test
suite asserts per explainer. Node explainers already work on the same
exact context on the full-graph path (``Explainer.node_context``), so
per request the runtime now saves only the O(E) structural fingerprint
of the full graph that the context cache key hashes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExplainerError, GraphError
from ..explain.base import Explanation
from ..explain.target import ExplainTarget
from ..graph import Graph, SampledSubgraph, extract_receptive_field
from ..obs import span
from ..obs.names import SPAN_SAMPLED_EXTRACT

__all__ = ["SampledExplainRuntime", "lift_explanation"]


def lift_explanation(field: SampledSubgraph, explanation: Explanation) -> Explanation:
    """Map a subgraph-local :class:`Explanation` back to global ids.

    Rewrites, in place, every score space that refers to the sampled
    graph's id spaces: data-edge scores scatter through the edge map,
    context node ids / edge positions compose with the sample's maps
    (both relabelings are monotone, so composition preserves order), and
    the target returns to its global id. Flow indices need no rewrite —
    their node sequences are context-local and translate through the
    lifted ``context_node_ids`` exactly as in the dense path.
    """
    explanation.edge_scores = field.lift_edge_scores(explanation.edge_scores)
    if explanation.target is not None:
        explanation.target = int(field.to_global_nodes(explanation.target))
    if explanation.context_node_ids is not None:
        explanation.context_node_ids = field.to_global_nodes(
            explanation.context_node_ids)
    if explanation.context_edge_positions is not None:
        explanation.context_edge_positions = field.edge_positions[
            np.asarray(explanation.context_edge_positions, dtype=np.int64)]
    link = explanation.meta.get("link")
    if link is not None:
        u, v = link
        explanation.meta["link"] = (int(field.to_global_nodes(u)),
                                    int(field.to_global_nodes(v)))
    explanation.meta["sampled"] = {
        "num_hops": field.num_hops,
        "num_nodes": field.num_nodes,
        "num_edges": field.num_edges,
        "targets": [int(t) for t in field.targets],
    }
    return explanation


class SampledExplainRuntime:
    """Sample-then-explain driver around one explainer instance.

    Parameters
    ----------
    explainer:
        Any node-task :class:`~repro.explain.base.Explainer` (or a
        :class:`~repro.core.link.LinkRevelio` for link targets). The
        explainer is used as-is — it sees an ordinary ``Graph`` and never
        learns it is looking at a sample.
    num_hops:
        Extraction depth; defaults to the wrapped model's ``num_layers``,
        the exactness horizon.
    """

    def __init__(self, explainer, num_hops: int | None = None):
        self.explainer = explainer
        self.num_hops = int(explainer.model.num_layers if num_hops is None else num_hops)
        if self.num_hops < 1:
            raise GraphError(f"num_hops must be >= 1, got {self.num_hops}")

    def explain(self, graph: Graph, target: ExplainTarget | int | None = None,
                mode: str = "factual") -> Explanation:
        """Explain ``target`` through its receptive field.

        Accepts the same target shapes as the wrapped explainer; graph
        kinds are rejected — a whole-graph explanation has no receptive
        field smaller than the instance itself.
        """
        target = ExplainTarget.coerce(target, task="node",
                                      where="SampledExplainRuntime.explain")
        if target is None or target.kind == "graph":
            raise ExplainerError(
                "sampled explanation requires a node or link target; "
                "whole-graph instances are already their own context")
        with span(SPAN_SAMPLED_EXTRACT, num_hops=self.num_hops) as sp:
            field = extract_receptive_field(graph, list(target.ids), self.num_hops)
            field.graph  # build the relabeled subgraph inside the span
            if sp is not None:
                sp.set(num_targets=len(field.targets), num_nodes=field.num_nodes,
                       num_edges=field.num_edges)
        if target.kind == "link":
            lu, lv = (int(i) for i in field.local_targets)
            local = self.explainer.explain(field.graph,
                                           ExplainTarget.link(lu, lv), mode=mode)
        else:
            local_node = int(field.local_index(target.node_id))
            local = self.explainer.explain(field.graph,
                                           ExplainTarget.node(local_node), mode=mode)
        return lift_explanation(field, local)

    def __repr__(self) -> str:
        return (f"SampledExplainRuntime(explainer={self.explainer.name}, "
                f"num_hops={self.num_hops})")
