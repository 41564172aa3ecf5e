"""API-contract rules: RPR020 (keyword-only public surfaces) and RPR021
(no re-exploded ExecutionConfig flat kwargs).

The PR-3 API redesign made every public ``repro.explain`` /
``repro.eval`` entry point keyword-only past its core positionals and
funnelled all execution options through one ``ExecutionConfig``. These
rules stop the tree from regressing: a new public helper with optional
positional parameters, or a call site resurrecting ``jobs=4`` flat
kwargs, fails lint instead of review.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation, dotted_name
from .registry import Rule, register

__all__: list[str] = []

#: Entry points that take an ``execution=ExecutionConfig(...)`` object.
_EXECUTION_ENTRY_POINTS = frozenset({
    "run_fidelity_experiment", "run_auc_experiment", "run_runtime_experiment",
})


def _legacy_execution_fields() -> frozenset[str]:
    """The flat kwargs the deprecation shim still accepts, read from the
    shim itself so the rule and runtime can never disagree."""
    from ..execution import _LEGACY_FIELDS

    return frozenset(_LEGACY_FIELDS)


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
                 "what the PR-3 keyword-only redesign removed.")

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


@register
class FlatExecutionKwargs(Rule):
    code = "RPR021"
    name = "flat-execution-kwargs"
    rationale = ("Passing jobs=/resume=/trace=/... directly to the "
                 "experiment drivers re-explodes ExecutionConfig into "
                 "flat kwargs; that shape only exists in the deprecation "
                 "shim and dies with it.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        legacy = _legacy_execution_fields()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None \
                    or dotted.split(".")[-1] not in _EXECUTION_ENTRY_POINTS:
                continue
            flat = sorted(kw.arg for kw in node.keywords
                          if kw.arg is not None and kw.arg in legacy)
            if flat:
                yield self.violation(
                    ctx, node,
                    f"{dotted.split('.')[-1]}() called with deprecated "
                    f"flat execution kwarg(s) {', '.join(flat)}; pass "
                    f"execution=ExecutionConfig(...)")
