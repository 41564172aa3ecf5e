"""The whole-program view: module tables, the import DAG, call graphs.

A :class:`ProgramContext` is assembled once per lint run from the
:class:`~repro.checks.program.summary.FileSummary` of every linted file
and handed to each :class:`~repro.checks.registry.ProgramRule`. It owns
the cross-file machinery the rules share:

* module lookup and the resolved import edge list (eager vs. lazy vs.
  ``TYPE_CHECKING`` edges are distinguished — architecture rules reason
  about *eager* edges only, because a function-level import is the
  sanctioned way to break a layering inversion);
* export-usage accounting for the API-surface rules (who imports, star
  imports, and attribute access through module aliases);
* per-module binding maps and function tables for the dataflow rules.

Everything here is derived data over plain summaries: a context never
touches the source tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .summary import FileSummary, FunctionSummary

__all__ = ["ImportEdge", "ProgramContext"]


@dataclass(frozen=True)
class ImportEdge:
    """One resolved import from a linted module to another."""

    source: str          # importing module
    target: str          # imported module (always a key of .modules)
    lineno: int
    col: int
    toplevel: bool
    type_checking: bool

    @property
    def eager(self) -> bool:
        """Whether this import executes when ``source`` is imported."""
        return self.toplevel and not self.type_checking


def _is_test(module: str) -> bool:
    """Whether a module lives under the ``tests`` root."""
    return module == "tests" or module.startswith("tests.")


class ProgramContext:
    """Symbol tables and graphs over every summarized module."""

    def __init__(self, summaries: Iterable[FileSummary]):
        #: module name -> summary (later files win on collisions, which
        #: only happen when two roots shadow the same dotted path).
        self.modules: dict[str, FileSummary] = {}
        self._by_display: dict[str, FileSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
            self._by_display[summary.display] = summary
        self._edges: list[ImportEdge] | None = None

    # ------------------------------------------------------------------
    # suppression
    # ------------------------------------------------------------------
    def suppressed(self, display: str, line: int, code: str) -> bool:
        summary = self._by_display.get(display)
        return summary is not None and summary.suppressed(line, code)

    # ------------------------------------------------------------------
    # module / package structure
    # ------------------------------------------------------------------
    def has_root_package(self) -> bool:
        """Whether a top-level package ``__init__`` is in the program —
        the completeness signal usage-absence rules gate on: without the
        tree's root the program is a slice, and "nobody imports X" would
        be an artifact of the slice, not a fact about the tree."""
        return any("." not in s.module and s.is_package
                   for s in self.modules.values())

    def resolve_import_target(self, kind: str, target: str,
                              name: str | None = None) -> str | None:
        """The program module an import record actually lands on.

        ``from pkg import name`` imports the submodule ``pkg.name`` when
        one exists, otherwise an attribute of ``pkg``; plain ``import
        a.b`` lands on ``a.b`` (falling back to the deepest known
        prefix).
        """
        if kind == "from" and name and name != "*":
            submodule = f"{target}.{name}"
            if submodule in self.modules:
                return submodule
        if target in self.modules:
            return target
        parts = target.split(".")
        while parts:
            parts.pop()
            prefix = ".".join(parts)
            if prefix in self.modules:
                return prefix
        return None

    # ------------------------------------------------------------------
    # the import DAG
    # ------------------------------------------------------------------
    def import_edges(self) -> list[ImportEdge]:
        """Every resolved module→module import edge, deterministic order."""
        if self._edges is not None:
            return self._edges
        edges: list[ImportEdge] = []
        for module in sorted(self.modules):
            summary = self.modules[module]
            for record in summary.imports:
                targets: set[str] = set()
                if record.kind == "import":
                    resolved = self.resolve_import_target("import",
                                                          record.target)
                    if resolved is not None:
                        targets.add(resolved)
                else:
                    for name, _ in record.names:
                        resolved = self.resolve_import_target(
                            "from", record.target, name)
                        if resolved is not None:
                            targets.add(resolved)
                for target in sorted(targets):
                    if target == module:
                        continue
                    edges.append(ImportEdge(
                        source=module, target=target,
                        lineno=record.lineno, col=record.col,
                        toplevel=record.toplevel,
                        type_checking=record.type_checking))
        self._edges = edges
        return edges

    def eager_graph(self) -> dict[str, list[ImportEdge]]:
        """module -> eager import edges out of it (deduped per target,
        keeping the first — lowest-line — edge)."""
        graph: dict[str, list[ImportEdge]] = {m: [] for m in self.modules}
        seen: set[tuple[str, str]] = set()
        for edge in self.import_edges():
            if not edge.eager:
                continue
            key = (edge.source, edge.target)
            if key in seen:
                continue
            seen.add(key)
            graph[edge.source].append(edge)
        return graph

    # ------------------------------------------------------------------
    # export usage (API-surface rules)
    # ------------------------------------------------------------------
    def export_uses(self) -> set[tuple[str, str]]:
        """``(module, name)`` pairs referenced anywhere in the program.

        A pair is used when some file ``from module import name``s it,
        star-imports the module (every ``__all__`` name counts), reaches
        it as an attribute through a module alias (``alias.name``), or
        imports the submodule it names by any spelling (``import
        pkg.sub`` credits ``(pkg, "sub")`` and every ancestor pair). Only
        the program credits a use: the defining module's own references
        do not count (an export exists for external consumers), and
        nothing under the ``tests`` root counts (a name only its test
        imports has no consumer for the test to protect).

        Usage propagates across re-export aliases: ``from D import N``
        in a façade module ``M`` makes ``(M, N)`` and ``(D, N)`` names
        for the same symbol, so consuming either spelling credits both —
        an ``__all__`` entry is dead only when the symbol is unreachable
        through *every* alias. The façade's import is itself a use only
        when its body reads the binding; one it merely lists in its own
        ``__all__`` is a pass-through, or every re-export would keep
        itself alive.
        """
        used: set[tuple[str, str]] = set()
        #: symbol-alias adjacency for the closure pass below.
        aliases: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for module, summary in self.modules.items():
            if _is_test(module):
                continue
            passthrough = set(summary.dunder_all or ()) - \
                set(summary.name_loads)
            # import statements
            for record in summary.imports:
                if record.kind != "from":
                    continue
                target = record.target
                for name, binding in record.names:
                    if name == "*":
                        if target == module:
                            continue
                        star_target = self.modules.get(target)
                        if star_target is not None and \
                                star_target.dunder_all:
                            for exported in star_target.dunder_all:
                                used.add((target, exported))
                        continue
                    if target != module and binding not in passthrough:
                        used.add((target, name))
                    if f"{target}.{name}" in self.modules:
                        continue  # submodule import, not a symbol alias
                    origin = self.resolve_import_target("import", target)
                    if origin is None or origin == module:
                        continue
                    a, b = (module, binding), (origin, name)
                    aliases.setdefault(a, set()).add(b)
                    aliases.setdefault(b, set()).add(a)
            # attribute access through module aliases
            bindings: dict[str, str] = {}
            for record in summary.imports:
                for name, binding in record.names:
                    if name == "*":
                        continue
                    if record.kind == "import":
                        root = record.target.split(".")[0]
                        bindings[binding] = record.target \
                            if binding != root else root
                    else:
                        resolved = self.resolve_import_target(
                            "from", record.target, name)
                        if resolved == f"{record.target}.{name}":
                            bindings[binding] = resolved
            for dotted in summary.attr_uses:
                parts = dotted.split(".")
                root_module = bindings.get(parts[0])
                if root_module is None:
                    continue
                chain = root_module.split(".") + parts[1:]
                for cut in range(1, len(chain)):
                    prefix = ".".join(chain[:cut])
                    if prefix in self.modules and prefix != module:
                        used.add((prefix, chain[cut]))
        # any import landing on pkg.sub credits the (ancestor, child)
        # listings along the chain — `from pkg import sub` is just one
        # spelling of consuming the submodule.
        for edge in self.import_edges():
            if _is_test(edge.source):
                continue
            parts = edge.target.split(".")
            for cut in range(1, len(parts)):
                parent = ".".join(parts[:cut])
                if parent != edge.source:
                    used.add((parent, parts[cut]))
        # closure over re-export aliases.
        queue = list(used)
        while queue:
            pair = queue.pop()
            for other in aliases.get(pair, ()):
                if other not in used:
                    used.add(other)
                    queue.append(other)
        return used

    # ------------------------------------------------------------------
    # call-graph machinery (dataflow rules)
    # ------------------------------------------------------------------
    def function_table(self, module: str) -> dict[str, FunctionSummary]:
        """qualname -> function summary for one module (resolvable names
        only — nested ``<locals>`` functions are excluded)."""
        summary = self.modules.get(module)
        if summary is None:
            return {}
        return {f.qualname: f for f in summary.functions
                if "<locals>" not in f.qualname}

    def binding_map(self, module: str) -> dict[str, tuple[str, str]]:
        """Local name -> ``(target_module, target_name)`` for names a
        module binds by importing. ``target_name`` is ``""`` when the
        binding is the module itself (``import x`` / ``from p import m``
        where ``m`` is a module)."""
        summary = self.modules.get(module)
        if summary is None:
            return {}
        bindings: dict[str, tuple[str, str]] = {}
        for record in summary.imports:
            for name, binding in record.names:
                if name == "*":
                    continue
                if record.kind == "import":
                    root = record.target.split(".")[0]
                    if binding == root and "." in record.target:
                        bindings[binding] = (root, "")
                    else:
                        bindings[binding] = (record.target, "")
                else:
                    resolved = self.resolve_import_target(
                        "from", record.target, name)
                    if resolved == f"{record.target}.{name}":
                        bindings[binding] = (resolved, "")
                    else:
                        bindings[binding] = (record.target, name)
        return bindings

    def resolve_call(self, module: str, caller: FunctionSummary,
                     callee: str) -> tuple[str, FunctionSummary] | None:
        """The ``(module, function)`` a dotted call lands on, if it can
        be resolved statically within the program."""
        if not callee:
            return None
        parts = callee.split(".")
        table = self.function_table(module)
        if len(parts) == 1:
            found = table.get(parts[0])
            if found is not None:
                return module, found
            bound = self.binding_map(module).get(parts[0])
            if bound is not None:
                target_module, target_name = bound
                if target_name:
                    remote = self.function_table(target_module).get(
                        target_name)
                    if remote is not None:
                        return target_module, remote
            return None
        if parts[0] in ("self", "cls") and "." in caller.qualname:
            cls = caller.qualname.rsplit(".", 1)[0]
            found = table.get(f"{cls}.{parts[1]}")
            if found is not None:
                return module, found
            return None
        bound = self.binding_map(module).get(parts[0])
        if bound is None:
            return None
        target_module, target_name = bound
        if target_name == "" and len(parts) >= 2:
            # alias is a module: walk the remaining parts as submodules
            # then a function name.
            chain = target_module.split(".") + parts[1:]
            for cut in range(len(chain) - 1, 0, -1):
                prefix = ".".join(chain[:cut])
                if prefix in self.modules:
                    rest = chain[cut:]
                    if len(rest) == 1:
                        remote = self.function_table(prefix).get(rest[0])
                        if remote is not None:
                            return prefix, remote
                    break
        return None

    # ------------------------------------------------------------------
    def iter_modules(self) -> Iterator[FileSummary]:
        """Summaries in deterministic (module-name) order."""
        for module in sorted(self.modules):
            yield self.modules[module]
