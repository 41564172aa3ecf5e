"""Dataflow rule: RPR130 — transitive blocking-call reachability.

RPR060 catches ``time.sleep`` written directly inside a serve
coroutine; it is blind to the same call one helper away. This rule
closes the gap: starting from every ``async def`` in :mod:`repro.serve`,
it follows direct calls into *synchronous* functions — across modules,
through the program's import bindings and ``self.``-method dispatch —
and flags any chain that reaches a blocking call, printing the chain so
the fix site is obvious.

What does **not** create an edge, by construction: a function passed as
a value (``loop.run_in_executor(None, fn)``, ``functools.partial``)
is never *called* at the reference site, so executor dispatch — the
sanctioned way to run slow work — cannot trip the rule. Chains through
``async`` callees are also not followed: an awaited coroutine is its
own RPR130 root, so every blocking chain is reported exactly once, at
its entry from async into sync code.

Bare ``open``/``input`` are flagged only as *direct* calls (RPR060's
job): one transitive hop away they are overwhelmingly startup/config
reads on the executor path, and the dotted table (sleep, subprocess,
sockets) is where the latency bodies are buried.
"""

from __future__ import annotations

from typing import Iterator

from ..blocking import BLOCKING_CALLS
from ..registry import ProgramRule, register
from .context import ProgramContext
from .summary import CallRecord, FunctionSummary

__all__: list[str] = []

#: Hop budget for call-graph traversal; deep chains past this are
#: architecture problems before they are lint problems.
_MAX_DEPTH = 10


@register
class TransitiveBlockingCall(ProgramRule):
    code = "RPR130"
    name = "transitive-blocking-call"
    rationale = ("A blocking call one helper away stalls the serve event "
                 "loop exactly as badly as one written inline; the rule "
                 "follows the call graph from every serve coroutine so "
                 "the sync-dispatch boundary, not the coroutine body, is "
                 "the checked contract.")

    _ROOT_PREFIX = "repro.serve"

    def _blocking_in(self, fn: FunctionSummary) -> CallRecord | None:
        for call in fn.calls:
            if call.callee in BLOCKING_CALLS:
                return call
        return None

    def check_program(self, program: ProgramContext) -> Iterator:
        # (module, qualname) -> (blocking chain, blocking call) | None,
        # memoized across roots; None means "no blocking reachable".
        memo: dict[tuple[str, str],
                   tuple[list[str], CallRecord] | None] = {}

        def chain_from(module: str, fn: FunctionSummary, depth: int,
                       visiting: set[tuple[str, str]]) \
                -> tuple[list[str], CallRecord] | None:
            key = (module, fn.qualname)
            if key in memo:
                return memo[key]
            if key in visiting or depth > _MAX_DEPTH:
                return None
            visiting.add(key)
            found: tuple[list[str], CallRecord] | None = None
            direct = self._blocking_in(fn)
            if direct is not None:
                found = ([f"{fn.qualname} ({module})"], direct)
            else:
                for call in fn.calls:
                    resolved = program.resolve_call(module, fn, call.callee)
                    if resolved is None:
                        continue
                    callee_module, callee_fn = resolved
                    if callee_fn.is_async:
                        continue
                    deeper = chain_from(callee_module, callee_fn,
                                        depth + 1, visiting)
                    if deeper is not None:
                        found = ([f"{fn.qualname} ({module})"] + deeper[0],
                                 deeper[1])
                        break
            visiting.discard(key)
            memo[key] = found
            return found

        for summary in program.iter_modules():
            if not (summary.module == self._ROOT_PREFIX or
                    summary.module.startswith(self._ROOT_PREFIX + ".")):
                continue
            for fn in summary.functions:
                if not fn.is_async:
                    continue
                for call in fn.calls:
                    resolved = program.resolve_call(summary.module, fn,
                                                    call.callee)
                    if resolved is None:
                        continue
                    callee_module, callee_fn = resolved
                    if callee_fn.is_async:
                        continue
                    chain = chain_from(callee_module, callee_fn, 1, set())
                    if chain is None:
                        continue
                    hops, blocking = chain
                    path = " -> ".join([f"{fn.qualname} (coroutine)"] + hops)
                    yield self.program_violation(
                        summary.display, call.lineno, call.col,
                        f"blocking {blocking.callee}() reachable from "
                        f"coroutine {fn.qualname!r} via {path}; move the "
                        f"chain onto the coalescer's executor or make "
                        f"the boundary async")
