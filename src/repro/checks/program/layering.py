"""Architecture rules: RPR100 (import cycles) and RPR101 (layering).

The execution substrate grew to a dozen subpackages; what keeps it
refactorable is that the dependency structure stays a DAG with a
declared direction. These rules pin both facts:

* **RPR100** — the eager (module-scope, non-``TYPE_CHECKING``) import
  graph must be acyclic at module granularity. A cycle is reported once,
  with the shortest path through it, anchored at the lexicographically
  first module's offending import.
* **RPR101** — the declared layering contract. Each named subpackage is
  assigned a layer; an eager import from a lower layer into a strictly
  higher one is a violation naming the offending edge and both layers.
  Function-level (lazy) imports are exempt by design: deferring an
  import to call time is the sanctioned escape hatch for upward
  references (the CLI booting the daemon, ``repro.nn`` reaching eval
  helpers), because it cannot deadlock package initialization and costs
  nothing at import time.

The contract (see DESIGN.md §14 for the per-edge rationale)::

    errors/rng/version            < sparse/obs/execution
    < graph/datasets              < autograd/nn
    < flows                       < core/explain/analysis
    < eval/viz                    < runner/serve/checks/cli

``repro.core`` (the paper's algorithm) sits with ``explain``, not at the
bottom: Revelio *is* an Explainer over trained models, so the compute
floor of the tree is ``repro.sparse``, not ``repro.core``.
"""

from __future__ import annotations

from typing import Iterator

from ..registry import ProgramRule, register
from .context import ImportEdge, ProgramContext

__all__: list[str] = []

#: The declared layering contract: ordered low → high. A module belongs
#: to the layer of its longest matching prefix; unlisted modules are
#: unconstrained (new subpackages opt in by being added here).
LAYERS: tuple[tuple[str, frozenset[str]], ...] = (
    ("foundation", frozenset({"repro.errors", "repro.version", "repro.rng"})),
    ("substrate", frozenset({"repro.sparse", "repro.obs",
                             "repro.execution"})),
    ("data", frozenset({"repro.graph", "repro.datasets"})),
    ("models", frozenset({"repro.autograd", "repro.nn"})),
    ("flows", frozenset({"repro.flows"})),
    ("explain", frozenset({"repro.core", "repro.explain",
                           "repro.analysis"})),
    ("evaluation", frozenset({"repro.eval", "repro.viz"})),
    ("orchestration", frozenset({"repro.runner", "repro.serve",
                                 "repro.checks", "repro.cli",
                                 "repro.__main__", "repro"})),
)


def layer_of(module: str) -> tuple[int, str] | None:
    """``(index, name)`` of the layer owning ``module``, longest prefix
    wins; ``None`` for modules outside the contract."""
    best: tuple[int, str] | None = None
    best_len = -1
    for index, (name, prefixes) in enumerate(LAYERS):
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = (index, name), len(prefix)
    return best


def _shortest_cycle(graph: dict[str, list[ImportEdge]],
                    start: str) -> list[str] | None:
    """Shortest eager-import cycle through ``start`` (BFS), as the node
    list ``[start, ..., start]``."""
    parents: dict[str, str] = {}
    frontier = [start]
    visited = {start}
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for edge in graph.get(node, ()):
                target = edge.target
                if target == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path + [start]
                if target not in visited:
                    visited.add(target)
                    parents[target] = node
                    next_frontier.append(target)
        frontier = next_frontier
    return None


@register
class ImportCycle(ProgramRule):
    code = "RPR100"
    name = "import-cycle"
    rationale = ("An eager import cycle makes module initialization "
                 "order-dependent: whichever module happens to be "
                 "imported first sees a half-initialized partner. Break "
                 "the cycle or defer one edge to function scope.")

    def check_program(self, program: ProgramContext) -> Iterator:
        graph = program.eager_graph()
        # Iterative Tarjan SCC over the eager graph.
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_index = work.pop()
                if edge_index == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                edges = graph.get(node, [])
                for position in range(edge_index, len(edges)):
                    target = edges[position].target
                    if target not in index_of:
                        work.append((node, position + 1))
                        work.append((target, 0))
                        recurse = True
                        break
                    if target in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[target])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for node in sorted(graph):
            if node not in index_of:
                strongconnect(node)

        for component in sorted(components):
            anchor = component[0]
            cycle = _shortest_cycle(
                {n: graph.get(n, []) for n in component}, anchor)
            path = " -> ".join(cycle) if cycle else " <-> ".join(component)
            summary = program.modules[anchor]
            edge = next((e for e in graph.get(anchor, ())
                         if e.target in component), None)
            yield self.program_violation(
                summary.display,
                edge.lineno if edge else 1, edge.col if edge else 0,
                f"eager import cycle among {len(component)} module(s): "
                f"{path}; defer one edge to function scope or invert it")


@register
class LayeringContract(ProgramRule):
    code = "RPR101"
    name = "layering-contract"
    rationale = ("The declared layer order (foundation < substrate < data "
                 "< models < flows < explain < evaluation < orchestration) "
                 "is what keeps the substrate swappable under the "
                 "numerics; an eager upward import couples a lower layer "
                 "to its callers. Lazy (function-scope) imports are the "
                 "sanctioned escape hatch.")

    def check_program(self, program: ProgramContext) -> Iterator:
        for edge in program.import_edges():
            if not edge.eager:
                continue
            source_layer = layer_of(edge.source)
            target_layer = layer_of(edge.target)
            if source_layer is None or target_layer is None:
                continue
            if target_layer[0] <= source_layer[0]:
                continue
            summary = program.modules[edge.source]
            yield self.program_violation(
                summary.display, edge.lineno, edge.col,
                f"layering violation: {edge.source} (layer "
                f"'{source_layer[1]}') eagerly imports {edge.target} "
                f"(higher layer '{target_layer[1]}'); invert the "
                f"dependency or defer the import to function scope")
