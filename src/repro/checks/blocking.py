"""Event-loop discipline: RPR060 keeps blocking calls out of serve coroutines.

The serving daemon's latency contract rests on a single-threaded event
loop: every coroutine that blocks — ``time.sleep``, a synchronous
subprocess, a blocking socket connect — stalls *every* connected client,
not just its own. The daemon's design routes all slow work through the
coalescer's executor thread, so a blocking call inside a coroutine in
:mod:`repro.serve` is always a bug. This rule flags them with
did-you-mean-async hints.

Scoping: only calls whose **nearest enclosing function is async** are
flagged. A synchronous helper nested inside (or dispatched from) a
coroutine legitimately blocks — it runs on the executor, which is the
whole point.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation, dotted_name
from .registry import Rule, register

__all__ = ["BLOCKING_CALLS", "BLOCKING_BARE"]

#: Blocking dotted calls -> the async replacement to suggest. Shared
#: with RPR130, which extends the same table transitively through the
#: call graph (repro.checks.program.dataflow).
BLOCKING_CALLS = {
    "time.sleep": "await asyncio.sleep(...)",
    "subprocess.run": "await asyncio.create_subprocess_exec(...)",
    "subprocess.call": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_call": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_output": "await asyncio.create_subprocess_exec(...)",
    "subprocess.Popen": "await asyncio.create_subprocess_exec(...)",
    "os.system": "await asyncio.create_subprocess_shell(...)",
    "os.waitpid": "await process.wait() on an asyncio subprocess",
    "socket.create_connection": "await asyncio.open_connection(...)",
    "select.select": "awaiting the stream/future on the event loop",
    "urllib.request.urlopen":
        "loop.run_in_executor(...) (or an asyncio HTTP client)",
    "requests.get": "loop.run_in_executor(...)",
    "requests.post": "loop.run_in_executor(...)",
}

#: Blocking bare-name calls (builtins) -> suggestion.
BLOCKING_BARE = {
    "open": "loop.run_in_executor(...) — file I/O belongs on the "
            "numerics thread, not the event loop",
    "input": "an out-of-band control channel; coroutines must not wait "
             "on the terminal",
}


def _calls_with_async_scope(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Calls whose nearest enclosing function is ``func`` itself.

    Nested ``def``/``lambda`` subtrees are skipped: their bodies run
    wherever they are *called* (typically the executor), so blocking
    there is legal. Nested ``async def``s are skipped here too — the
    rule's outer walk visits them as their own scope.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class BlockingCallInCoroutine(Rule):
    code = "RPR060"
    name = "blocking-call-in-coroutine"
    rationale = ("A blocking call inside a repro.serve coroutine stalls the "
                 "event loop and every connected client with it; slow work "
                 "belongs on the coalescer's executor thread or behind the "
                 "asyncio equivalent.")

    def applies(self, ctx: FileContext) -> bool:
        # The daemon package only: everywhere else synchronous waits are
        # ordinary code, and test coroutines drive real sockets on purpose.
        return ctx.module_is("repro.serve")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for scope in ctx.nodes:
            if not isinstance(scope, ast.AsyncFunctionDef):
                continue
            for call in _calls_with_async_scope(scope):
                called = dotted_name(call.func)
                if called in BLOCKING_CALLS:
                    yield self.violation(
                        ctx, call,
                        f"blocking {called}() inside coroutine "
                        f"{scope.name!r} stalls the event loop; use "
                        f"{BLOCKING_CALLS[called]}")
                elif called in BLOCKING_BARE:
                    yield self.violation(
                        ctx, call,
                        f"blocking {called}() inside coroutine "
                        f"{scope.name!r} stalls the event loop; use "
                        f"{BLOCKING_BARE[called]}")
