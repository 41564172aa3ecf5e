"""API-surface rules: RPR110 (dead exports), RPR111 (``__all__`` drift),
RPR112 (private-module reach-ins).

``__all__`` is the tree's public-API ledger; these rules keep the ledger
honest in both directions. A name exported but never imported by the
program — tests and pass-through re-exports do not count — is surface
area that costs review attention and deprecation work while serving
nobody (RPR110). A name listed in ``__all__`` but not
actually bound in the module is a latent ``AttributeError`` behind
``from x import *`` (RPR111). And an import that reaches across
subpackages into an underscore-private module couples the consumer to
layout the owner explicitly reserved the right to change (RPR112).
"""

from __future__ import annotations

from typing import Iterator

from ..registry import ProgramRule, register
from .context import ProgramContext

__all__: list[str] = []

#: Exports every distribution keeps regardless of internal consumers.
_ALWAYS_PUBLIC = frozenset({"__version__"})


@register
class DeadExport(ProgramRule):
    code = "RPR110"
    name = "dead-export"
    rationale = ("The lint roots are src, tests, benchmarks, examples and "
                 "perfbench. A name in __all__ that no program module "
                 "imports or reads is unowned public surface: a test "
                 "importing it, or a facade only re-listing it, is not an "
                 "owner. It only decays. Delete it or use it.")

    def check_program(self, program: ProgramContext) -> Iterator:
        # Without the tree's root package the program is a slice, and
        # "nobody imports X" would be a fact about the slice.
        if not program.has_root_package():
            return
        used = program.export_uses()
        for summary in program.iter_modules():
            if summary.dunder_all is None or summary.all_dynamic:
                continue
            dead = [name for name in summary.dunder_all
                    if (summary.module, name) not in used
                    and name not in _ALWAYS_PUBLIC]
            line = summary.all_lineno or 1
            for name in dead:
                yield self.program_violation(
                    summary.display, line, 0,
                    f"dead export: {summary.module}.__all__ lists "
                    f"{name!r} but nothing in the program imports it; "
                    f"remove it from __all__ or add a consumer")


@register
class DunderAllDrift(ProgramRule):
    code = "RPR111"
    name = "dunder-all-drift"
    rationale = ("A name in __all__ that the module never binds is a "
                 "latent AttributeError behind `from x import *` and a "
                 "lie in the API ledger; __all__ must track the module "
                 "body.")

    def check_program(self, program: ProgramContext) -> Iterator:
        for summary in program.iter_modules():
            if summary.dunder_all is None or summary.all_dynamic:
                continue
            bound = summary.bound_names()
            if summary.is_package:
                # A package __init__ may legitimately export its own
                # submodules without importing them (lazy façades).
                prefix = summary.module + "."
                bound = bound | {m[len(prefix):] for m in program.modules
                                 if m.startswith(prefix)
                                 and "." not in m[len(prefix):]}
            line = summary.all_lineno or 1
            for name in summary.dunder_all:
                if name in bound or name in _ALWAYS_PUBLIC:
                    continue
                yield self.program_violation(
                    summary.display, line, 0,
                    f"__all__ drift: {summary.module} exports {name!r} "
                    f"but never defines or imports it")


@register
class PrivateModuleReachIn(ProgramRule):
    code = "RPR112"
    name = "private-module-reach-in"
    rationale = ("An underscore-prefixed module is a subpackage's "
                 "private layout; importing it from another subpackage "
                 "couples the consumer to internals the owner reserved "
                 "the right to rearrange. Import through the package's "
                 "public surface instead.")

    @staticmethod
    def _subpackage(module: str) -> str:
        parts = module.split(".")
        return ".".join(parts[:2]) if len(parts) > 1 else module

    def check_program(self, program: ProgramContext) -> Iterator:
        for edge in program.import_edges():
            private = [part for part in edge.target.split(".")
                       if part.startswith("_") and part != "__init__"
                       and not part.startswith("__")]
            if not private:
                continue
            if self._subpackage(edge.source) == self._subpackage(edge.target):
                continue
            summary = program.modules[edge.source]
            yield self.program_violation(
                summary.display, edge.lineno, edge.col,
                f"{edge.source} reaches into {edge.target}: module "
                f"{private[0]!r} is private to "
                f"{self._subpackage(edge.target)}; import through its "
                f"public package surface")
