"""Cross-file contract rule: RPR120 (kernel backend signatures).

The kernel registry's plugin contract — "a backend implements the ops it
accelerates with the required backend's signatures" — is verified
statically: every ``register_kernel(op, backend, fn)`` call site in the
program is collected, the required backend's implementations define the
reference arity per op, and every other backend's registered function
must match it.
"""

from __future__ import annotations

from typing import Iterator

from ..registry import ProgramRule, register
from .context import ProgramContext
from .summary import FileSummary, FunctionSummary

__all__ = ["KernelBackendContract"]


@register
class KernelBackendContract(ProgramRule):
    code = "RPR120"
    name = "kernel-backend-contract"
    rationale = ("A plugin backend whose kernel signature drifts from "
                 "the required backend's fails at dispatch time on the "
                 "one machine that has the optional dependency; the "
                 "registry contract is checkable at lint time instead.")

    #: The registry module's constant naming the always-complete backend.
    _REQUIRED_CONST = "REQUIRED_BACKEND"

    def _registry_module(self, program: ProgramContext) -> FileSummary | None:
        for summary in program.iter_modules():
            if "register_kernel" in summary.defs:
                return summary
        return None

    def check_program(self, program: ProgramContext) -> Iterator:
        registry = self._registry_module(program)
        if registry is None:
            return
        required = registry.consts.get(self._REQUIRED_CONST, "scipy")
        # op -> reference positional params, from the required backend's
        # registrations (which live in the registry module itself).
        reference: dict[str, list[str]] = {}
        for call in registry.register_calls:
            if call.backend != required or call.op is None or call.fn is None:
                continue
            table = program.function_table(registry.module)
            fn = table.get(call.fn)
            if fn is not None:
                reference[call.op] = fn.params
        if not reference:
            return
        for summary in program.iter_modules():
            for call in summary.register_calls:
                if call.backend is None or call.backend == required:
                    continue
                if call.op is not None and call.op not in reference:
                    yield self.program_violation(
                        summary.display, call.lineno, call.col,
                        f"backend {call.backend!r} registers unknown op "
                        f"{call.op!r}; the required backend "
                        f"({required!r}) defines: "
                        f"{', '.join(sorted(reference))}")
                    continue
                if call.op is None or call.fn is None:
                    continue
                fn = program.function_table(summary.module).get(call.fn)
                if fn is None:
                    resolved = program.resolve_call(
                        summary.module,
                        FunctionSummary(name="", qualname="", is_async=False,
                                        lineno=0, params=[]),
                        call.fn)
                    fn = resolved[1] if resolved is not None else None
                if fn is None:
                    continue  # lambda / dynamically built — not checkable
                expected = reference[call.op]
                if len(fn.params) != len(expected):
                    yield self.program_violation(
                        summary.display, call.lineno, call.col,
                        f"backend {call.backend!r} op {call.op!r}: "
                        f"{fn.name}() takes {len(fn.params)} positional "
                        f"parameter(s) ({', '.join(fn.params) or 'none'}) "
                        f"but the required backend's signature is "
                        f"({', '.join(expected)})")
