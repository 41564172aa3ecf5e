"""API-contract rule: RPR020 (keyword-only public surfaces).

Every public ``repro.explain`` / ``repro.eval`` entry point is
keyword-only past its core positionals. This rule stops the tree from
regressing: a new public helper with optional positional parameters
fails lint instead of review. (Flat execution kwargs such as ``jobs=4``
need no rule: the drivers reject them at runtime.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation
from .registry import Rule, register

__all__: list[str] = []


def _public_names(tree: ast.Module) -> set[str] | None:
    """Names in a literal module ``__all__``, or ``None`` when undefined."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(node.value,
                                                  (ast.List, ast.Tuple)):
                return {elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)}
    return None


@register
class PositionalDefaults(Rule):
    code = "RPR020"
    name = "positional-defaults"
    rationale = ("Optional parameters of public explain/eval entry points "
                 "must be keyword-only: positional optionals freeze "
                 "parameter order into every call site, which is exactly "
                 "what the keyword-only redesign removed.")

    _SCOPED = ("repro.explain", "repro.eval")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is(*self._SCOPED)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        exported = _public_names(ctx.tree)
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            public = node.name in exported if exported is not None \
                else not node.name.startswith("_")
            if not public:
                continue
            positional = [*node.args.posonlyargs, *node.args.args]
            defaulted = positional[len(positional) - len(node.args.defaults):]
            if defaulted:
                names = ", ".join(a.arg for a in defaulted)
                yield self.violation(
                    ctx, node,
                    f"public function {node.name}(): optional "
                    f"parameter(s) {names} must be keyword-only — move "
                    f"them behind `*`")
