"""Error-discipline rules: RPR010 (bare except), RPR011 (swallowed
exceptions), RPR012 (library raises outside the ReproError hierarchy).

The runner's fault-tolerance contract is that *every* failure is
captured with its type and traceback (``BatchResult.failures``, the job
journal); a bare ``except`` or an ``except Exception: pass`` anywhere in
the stack silently rewrites a crashed worker as a clean result. And the
public promise that ``except ReproError`` catches everything the library
raises only holds if no module reaches for a builtin exception instead.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from .engine import FileContext, Violation
from .registry import Rule, register

__all__: list[str] = []


def _repro_error_names() -> set[str]:
    """Names of the ReproError hierarchy, read from :mod:`repro.errors`.

    Imported lazily so the rule always reflects the current hierarchy —
    adding a subsystem error automatically whitelists it.
    """
    from .. import errors

    names = set()
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, errors.ReproError):
            names.add(name)
    return names


#: Builtin exception names (computed, so new Python versions stay covered).
_BUILTIN_EXCEPTIONS = frozenset(
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

#: Builtins that are legitimate outside the hierarchy: abstract-method
#: and iterator protocol markers, interpreter control flow, and
#: assertion-style invariant checks.
_ALLOWED_BUILTINS = frozenset({
    "NotImplementedError", "StopIteration", "StopAsyncIteration",
    "GeneratorExit", "KeyboardInterrupt", "SystemExit", "AssertionError",
})


def _covers_everything(handler: ast.ExceptHandler) -> bool:
    """Whether the handler catches Exception/BaseException (or is bare)."""
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for cand in candidates:
        if isinstance(cand, ast.Name) and cand.id in ("Exception",
                                                      "BaseException"):
            return True
    return False


def _body_is_noop(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        return False
    return True


@register
class BareExcept(Rule):
    code = "RPR010"
    name = "bare-except"
    rationale = ("A bare `except:` also catches KeyboardInterrupt and "
                 "SystemExit, turning a cancelled run into a fake "
                 "success; name the exception type.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx, node,
                    "bare `except:` catches KeyboardInterrupt/SystemExit; "
                    "catch a named exception type")


@register
class SwallowedException(Rule):
    code = "RPR011"
    name = "swallowed-exception"
    rationale = ("`except Exception: pass` erases the failure entirely — "
                 "no record, no re-raise — masking worker crashes and "
                 "corrupting aggregated results.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.ExceptHandler) \
                    and _covers_everything(node) \
                    and _body_is_noop(node.body):
                yield self.violation(
                    ctx, node,
                    "broad except with a pass body silently discards the "
                    "error; record it (e.g. BatchResult.failures) or "
                    "re-raise")


@register
class ForeignRaise(Rule):
    code = "RPR012"
    name = "foreign-raise"
    rationale = ("Library code must raise ReproError subclasses so "
                 "`except ReproError` catches everything the package "
                 "raises; a stray ValueError escapes that contract.")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is("repro")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hierarchy = sorted(_repro_error_names())
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in _BUILTIN_EXCEPTIONS and name not in _ALLOWED_BUILTINS:
                yield self.violation(
                    ctx, node,
                    f"raise {name} from library code escapes the "
                    f"ReproError hierarchy; raise one of "
                    f"{', '.join(hierarchy)} (repro.errors)")
