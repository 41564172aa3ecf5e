"""Determinism rules: RPR001 (global RNG), RPR002 (wall-clock seeds),
RPR003 (set-order-sensitive iteration in scoring code).

The reproduction's headline claims (fidelity curves, AUC, the runtime
table) are only comparable across machines and reruns if every random
draw flows from an explicit seed and no score depends on hash order.
These rules make the conventions in :mod:`repro.rng` machine-checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation, dotted_name
from .registry import Rule, register

__all__: list[str] = []

#: numpy.random attributes that construct *seeded, instance-local*
#: generators — everything else on the module touches process-global state.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: stdlib ``random`` attributes that are instance constructors, not
#: module-global draws.
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: Call targets that consume a seed (constructors and repro.rng helpers).
_SEED_SINKS = frozenset({
    "default_rng", "ensure_rng", "spawn_rngs", "seed", "RandomState",
    "Generator", "SeedSequence", "Random",
})

#: Dotted suffixes whose call result varies run to run.
_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "os.urandom", "os.getpid",
    "uuid.uuid1", "uuid.uuid4",
)

#: Expressions producing a set (hash-ordered, nondeterministic for str
#: keys under PYTHONHASHSEED) — iterating one directly is the hazard.
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def _random_module_aliases(nodes: list[ast.AST]) -> set[str]:
    """Local names bound to the stdlib ``random`` module by imports."""
    aliases: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
    return aliases


@register
class GlobalRandomState(Rule):
    code = "RPR001"
    name = "global-random-state"
    rationale = ("Draws from module-global RNG state (np.random.*, "
                 "random.*) make results depend on call order across the "
                 "whole process; every draw must come from a seeded "
                 "Generator (repro.rng.ensure_rng).")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        random_aliases = _random_module_aliases(ctx.nodes)
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _STDLIB_RANDOM_OK:
                            yield self.violation(
                                ctx, node,
                                f"'from random import {alias.name}' binds a "
                                f"module-global RNG function; use a seeded "
                                f"Generator (repro.rng.ensure_rng)")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_OK:
                            yield self.violation(
                                ctx, node,
                                f"'from numpy.random import {alias.name}' "
                                f"binds process-global RNG state; use "
                                f"np.random.default_rng")
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) >= 3 and parts[0] in ("np", "numpy") \
                    and parts[1] == "random" \
                    and parts[2] not in _NP_RANDOM_OK:
                yield self.violation(
                    ctx, node,
                    f"{dotted}() draws from numpy's process-global RNG "
                    f"state; pass a seeded np.random.Generator "
                    f"(repro.rng.ensure_rng)")
            elif len(parts) == 2 and parts[0] in random_aliases \
                    and parts[1] not in _STDLIB_RANDOM_OK:
                yield self.violation(
                    ctx, node,
                    f"{dotted}() draws from the stdlib's process-global "
                    f"RNG state; use random.Random(seed) or a numpy "
                    f"Generator")


@register
class WallClockSeed(Rule):
    code = "RPR002"
    name = "wall-clock-seed"
    rationale = ("A seed derived from the clock or the pid gives every "
                 "run a different stream — results can never be "
                 "reproduced from the logged config.")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] not in _SEED_SINKS:
                continue
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                for inner in ast.walk(arg):
                    if not isinstance(inner, ast.Call):
                        continue
                    inner_dotted = dotted_name(inner.func)
                    if inner_dotted is None:
                        continue
                    if any(inner_dotted == s or inner_dotted.endswith("." + s)
                           for s in _WALL_CLOCK_SUFFIXES):
                        yield self.violation(
                            ctx, inner,
                            f"seed derived from {inner_dotted}() is "
                            f"different on every run; thread an explicit "
                            f"integer seed instead")


@register
class SetOrderIteration(Rule):
    code = "RPR003"
    name = "set-order-iteration"
    rationale = ("Iterating a set feeds hash order — which varies with "
                 "PYTHONHASHSEED — into whatever consumes the loop; in "
                 "scoring code that silently changes flow scores between "
                 "runs. Sort (or otherwise order) the elements first.")

    #: Only scoring code is in scope: flow enumeration/aggregation and
    #: the explainers that rank them. Elsewhere set iteration is fine.
    _SCOPED = ("repro.flows", "repro.explain", "repro.core")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is(*self._SCOPED)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _SET_METHODS:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        iter_exprs: list[ast.AST] = []
        for node in ctx.nodes:
            if isinstance(node, ast.For):
                iter_exprs.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iter_exprs.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("list", "tuple", "enumerate"):
                iter_exprs.append(node.args[0])
        for expr in iter_exprs:
            if self._is_set_expr(expr):
                yield self.violation(
                    ctx, expr,
                    "iteration over a set feeds hash order into scoring "
                    "code; wrap in sorted(...) for a deterministic order")
