"""Observability-conformance rules: RPR030 (span names) and RPR031
(PERF stage/counter names) must resolve against :mod:`repro.obs.names`.

A typo'd counter attribute or stage string does not crash — it opens a
fresh bucket and the real one silently reads zero in every manifest.
These rules resolve every observability string literal in the ``repro``
package against the declared registry at lint time, with a
did-you-mean hint from the registered names.
"""

from __future__ import annotations

import ast
import difflib
from typing import Iterator

from .engine import FileContext, Violation, dotted_name
from .registry import Rule, register

__all__: list[str] = []

#: Non-counter attributes legal on the PERF object.
_PERF_METHODS = frozenset({
    "snapshot", "delta", "merge", "stage", "reset", "stage_seconds",
})


def _registry() -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(span names, stage names, counter names) from the live registry."""
    from ..obs import names

    return names.SPAN_NAMES, names.STAGE_NAMES, names.COUNTER_NAMES


def _hint(bad: str, known: frozenset[str]) -> str:
    close = difflib.get_close_matches(bad, known, n=1)
    if close:
        return f" (did you mean {close[0]!r}?)"
    return f" (registered: {', '.join(sorted(known))})"


class _ObsRule(Rule):
    """Shared scoping: only the ``repro`` package must conform — tests
    and scratch scripts open ad-hoc spans on purpose."""

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is("repro")


@register
class UnregisteredSpanName(_ObsRule):
    code = "RPR030"
    name = "unregistered-span-name"
    rationale = ("A span name not declared in repro.obs.names fragments "
                 "trace summaries and manifests silently; declare the "
                 "constant and import it at the call site.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        span_names, _, _ = _registry()
        for node in ctx.nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            is_span_call = (isinstance(func, ast.Name) and func.id == "span") \
                or (isinstance(func, ast.Attribute)
                    and func.attr in ("span", "start_span"))
            if not is_span_call:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in span_names:
                    yield self.violation(
                        ctx, first,
                        f"span name {first.value!r} is not declared in "
                        f"repro.obs.names{_hint(first.value, span_names)}")


@register
class UnregisteredPerfName(_ObsRule):
    code = "RPR031"
    name = "unregistered-perf-name"
    rationale = ("A typo'd PERF counter or stage string creates a fresh "
                 "bucket instead of failing, so the real metric silently "
                 "reads zero; every name must exist in repro.obs.names.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        _, stage_names, counter_names = _registry()
        for node in ctx.nodes:
            # PERF.stage("...") literals must be registered stages.
            if isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "stage" \
                    and dotted_name(node.func.value) == "PERF":
                first = node.args[0]
                if isinstance(first, ast.Constant) \
                        and isinstance(first.value, str) \
                        and first.value not in stage_names:
                    yield self.violation(
                        ctx, first,
                        f"stage name {first.value!r} is not declared in "
                        f"repro.obs.names{_hint(first.value, stage_names)}")
            # PERF.<attr> must be a declared counter or a method.
            if isinstance(node, ast.Attribute) \
                    and dotted_name(node.value) == "PERF" \
                    and node.attr not in counter_names \
                    and node.attr not in _PERF_METHODS:
                yield self.violation(
                    ctx, node,
                    f"PERF.{node.attr} is not a declared counter"
                    f"{_hint(node.attr, counter_names)}")
