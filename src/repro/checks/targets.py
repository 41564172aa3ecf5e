"""Target-typing rule: RPR070 (public entry points take ExplainTarget).

The PR-9 target redesign made :class:`~repro.explain.target.ExplainTarget`
the one vocabulary for "what is being explained" — node ids, link
endpoints and graph indices all flow through it, and the bare-int /
``(u, v)``-tuple shapes survive only one release behind a
``DeprecationWarning``. This rule keeps the surface from regressing: a
public explain/eval/serve function whose ``target``/``targets``
parameter is untyped (or typed as a bare int) is a new entry point
quietly reintroducing the legacy shape, and fails lint instead of
review.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation
from .registry import Rule, register

__all__: list[str] = []

#: Parameter names the rule considers target-carrying.
_TARGET_PARAMS = frozenset({"target", "targets"})


def _function_nodes(tree: ast.Module) -> Iterator[tuple[ast.AST, bool]]:
    """Yield ``(function_node, is_public)`` for module- and class-level defs.

    A method is public only when both it and its class avoid a leading
    underscore; nested (closure) functions are implementation detail and
    are not visited.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, not node.name.startswith("_")
        elif isinstance(node, ast.ClassDef):
            public_cls = not node.name.startswith("_")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, public_cls and not item.name.startswith("_")


@register
class UntypedExplainTargets(Rule):
    code = "RPR070"
    name = "untyped-explain-targets"
    rationale = ("Public explain/eval/serve entry points must "
                 "type their target/targets parameters as ExplainTarget: "
                 "an untyped target parameter is a new entry point "
                 "reintroducing the deprecated bare-int/tuple shapes.")

    _SCOPED = ("repro.explain", "repro.eval", "repro.serve")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is(*self._SCOPED)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for fn, public in _function_nodes(ctx.tree):
            if not public:
                continue
            params = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            for arg in params:
                if arg.arg not in _TARGET_PARAMS:
                    continue
                annotation = ast.unparse(arg.annotation) \
                    if arg.annotation is not None else None
                if annotation is not None and "ExplainTarget" in annotation:
                    continue
                current = f"annotated {annotation!r}" if annotation else "unannotated"
                hint = "ExplainTarget.node(i) / ExplainTarget.link(u, v)" \
                    if arg.arg == "target" else "a sequence of ExplainTarget"
                yield self.violation(
                    ctx, arg,
                    f"public function {fn.name}(): parameter {arg.arg!r} is "
                    f"{current} — did you mean 'ExplainTarget | int | None'? "
                    f"Targets are {hint}")
