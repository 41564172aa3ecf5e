"""Per-file module digests — the unit of whole-program analysis.

A :class:`FileSummary` is everything the cross-file rules need to know
about one module, extracted from its AST exactly once: resolved import
records, top-level bindings, the literal ``__all__``, per-function call
lists and ``register_kernel`` registrations. Summaries are plain data —
no AST nodes — so the whole-program rules reason over every module
without holding every tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from ..engine import FileContext

__all__ = ["CallRecord", "FunctionSummary", "FileSummary", "summarize"]


@dataclass
class ImportRecord:
    """One import statement alias, with its target resolved to an
    absolute dotted module path (relative levels already applied)."""

    kind: str                 # "import" | "from"
    target: str               # absolute dotted module ("" if unresolvable)
    #: ``(imported name, local binding)`` pairs. For ``kind="import"``
    #: the imported name is the full module path and the binding is the
    #: asname (or the root package when there is none). For
    #: ``kind="from"`` the name may be ``"*"``.
    names: list[list[str]]
    lineno: int
    col: int
    toplevel: bool            # module scope (not nested in a function)
    type_checking: bool       # inside an `if TYPE_CHECKING:` block


@dataclass
class CallRecord:
    """One call whose nearest enclosing function is the summarized one."""

    callee: str               # dotted name ("" when not a Name/Attribute chain)
    lineno: int
    col: int


@dataclass
class FunctionSummary:
    """One function or method: signature shape plus its direct calls."""

    name: str
    qualname: str             # "f", "Cls.f", or "outer.<locals>.f"
    is_async: bool
    lineno: int
    params: list[str]         # positional parameters, in order
    calls: list[CallRecord] = field(default_factory=list)


@dataclass
class RegisterCall:
    """A ``register_kernel(op, backend, fn)`` call; ``op`` and ``backend``
    are string literals or module string constants, else None."""

    op: str | None
    backend: str | None
    fn: str | None            # bare name of the implementation, if a Name
    lineno: int
    col: int


@dataclass
class FileSummary:
    """The digest of one linted file."""

    module: str
    display: str
    path: str
    is_package: bool
    #: name -> "func" | "class" | "const" for top-level definitions.
    defs: dict[str, str]
    #: name -> string value, for top-level ``NAME = "literal"`` assigns.
    consts: dict[str, str]
    #: The literal ``__all__`` (None when undefined).
    dunder_all: list[str] | None
    all_lineno: int | None
    #: True when ``__all__`` exists but is not one literal list/tuple.
    all_dynamic: bool
    imports: list[ImportRecord]
    functions: list[FunctionSummary]
    register_calls: list[RegisterCall]
    #: Dotted attribute chains whose root is an import binding.
    attr_uses: list[str]
    #: Import bindings the module body reads by bare name.
    name_loads: list[str]
    #: Effective noqa map (logical lines already expanded); None = all.
    noqa: dict[int, frozenset[str] | None]

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is noqa-suppressed at ``line``."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        return codes is None or code in codes

    def bound_names(self) -> set[str]:
        """Every name bound at module top level (defs + import bindings)."""
        bound = set(self.defs) | set(self.consts)
        for record in self.imports:
            if not record.toplevel:
                continue
            for name, binding in record.names:
                if name != "*":
                    bound.add(binding)
        return bound


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str:
    """Absolute dotted path for a level-``level`` relative import."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return ""
    base = parts[:len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _is_type_checking_test(test: ast.expr) -> bool:
    """Whether an ``if`` test is the TYPE_CHECKING guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _string_arg(arg: ast.expr | None, consts: dict[str, str]) -> str | None:
    """A string literal's value, or a bare name resolved through the
    module's top-level string constants; anything else (a loop variable,
    a call) is not statically known."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        return consts.get(arg.id)
    return None


def _direct_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) \
        -> Iterator[ast.Call]:
    """Calls whose nearest enclosing function is ``func`` itself —
    nested defs and lambdas run where they are *called*, so their bodies
    belong to their own summaries."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def summarize(ctx: "FileContext") -> FileSummary:
    """Extract a :class:`FileSummary` from a parsed :class:`FileContext`."""
    module = ctx.module
    is_package = ctx.path.name == "__init__.py"

    defs: dict[str, str] = {}
    consts: dict[str, str] = {}
    dunder_all: list[str] | None = None
    all_lineno: int | None = None
    all_dynamic = False
    imports: list[ImportRecord] = []
    functions: list[FunctionSummary] = []
    register_calls: list[RegisterCall] = []
    attr_uses: set[str] = set()
    name_loads: set[str] = set()

    def record_import(node: ast.Import | ast.ImportFrom, toplevel: bool,
                      type_checking: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = alias.asname or alias.name.split(".")[0]
                imports.append(ImportRecord(
                    kind="import", target=alias.name,
                    names=[[alias.name, binding]],
                    lineno=node.lineno, col=node.col_offset,
                    toplevel=toplevel, type_checking=type_checking))
        else:
            target = _resolve_relative(module, is_package, node.level,
                                       node.module)
            names = [[alias.name, alias.asname or alias.name]
                     for alias in node.names]
            imports.append(ImportRecord(
                kind="from", target=target, names=names,
                lineno=node.lineno, col=node.col_offset,
                toplevel=toplevel, type_checking=type_checking))

    def collect_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                         qualprefix: str) -> None:
        qualname = f"{qualprefix}{node.name}" if qualprefix else node.name
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
        calls = [CallRecord(callee=_dotted(call.func) or "",
                            lineno=call.lineno, col=call.col_offset)
                 for call in _direct_calls(node)]
        calls.sort(key=lambda c: (c.lineno, c.col))
        functions.append(FunctionSummary(
            name=node.name, qualname=qualname,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            lineno=node.lineno, params=params, calls=calls))
        # Nested defs get their own (unresolvable-by-name) records so
        # async defs hiding inside factories still serve as roots.
        walk_scope(node.body, toplevel=False, type_checking=False,
                   qualprefix=f"{qualname}.<locals>.")

    def walk_scope(body: list[ast.stmt], toplevel: bool, type_checking: bool,
                   qualprefix: str) -> None:
        nonlocal dunder_all, all_lineno, all_dynamic
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                record_import(node, toplevel, type_checking)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if toplevel:
                    defs[node.name] = "func"
                collect_function(node, qualprefix)
            elif isinstance(node, ast.ClassDef):
                if toplevel:
                    defs[node.name] = "class"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        collect_function(
                            item, f"{qualprefix}{node.name}.")
            elif isinstance(node, ast.If):
                guarded = type_checking or _is_type_checking_test(node.test)
                walk_scope(node.body, toplevel, guarded, qualprefix)
                walk_scope(node.orelse, toplevel, type_checking, qualprefix)
            elif isinstance(node, ast.Try):
                walk_scope(node.body, toplevel, type_checking, qualprefix)
                for handler in node.handlers:
                    walk_scope(handler.body, toplevel, type_checking,
                               qualprefix)
                walk_scope(node.orelse, toplevel, type_checking, qualprefix)
                walk_scope(node.finalbody, toplevel, type_checking, qualprefix)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                walk_scope(node.body, toplevel, type_checking, qualprefix)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                walk_scope(node.body, False, type_checking, qualprefix)
                walk_scope(node.orelse, False, type_checking, qualprefix)
            elif toplevel and isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__all__":
                        all_lineno = node.lineno
                        if isinstance(node.value, (ast.List, ast.Tuple)) and \
                                all(isinstance(e, ast.Constant)
                                    and isinstance(e.value, str)
                                    for e in node.value.elts):
                            dunder_all = [e.value  # type: ignore[misc]
                                          for e in node.value.elts]
                        else:
                            all_dynamic = True
                        continue
                    defs.setdefault(target.id, "const")
                    if isinstance(node.value, ast.Constant) and \
                            isinstance(node.value.value, str):
                        consts[target.id] = node.value.value
            elif toplevel and isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defs.setdefault(node.target.id, "const")
            elif toplevel and isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name) and \
                        node.target.id == "__all__":
                    all_dynamic = True

    walk_scope(ctx.tree.body, toplevel=True, type_checking=False,
               qualprefix="")

    # Whole-tree sweep that does not care about scope nesting.
    import_bindings = {binding for record in imports
                       for _, binding in record.names}
    for node in ctx.nodes:
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.split(".")[0] in import_bindings:
                attr_uses.add(dotted)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in import_bindings:
                name_loads.add(node.id)
        elif isinstance(node, ast.Call):
            callee = _dotted(node.func)
            if callee is not None and \
                    callee.split(".")[-1] == "register_kernel":
                args: list[ast.expr | None] = list(node.args[:3])
                args.extend([None] * (3 - len(args)))
                fn = args[2]
                register_calls.append(RegisterCall(
                    op=_string_arg(args[0], consts),
                    backend=_string_arg(args[1], consts),
                    fn=fn.id if isinstance(fn, ast.Name) else None,
                    lineno=node.lineno, col=node.col_offset))

    register_calls.sort(key=lambda r: (r.lineno, r.col))
    return FileSummary(
        module=module, display=ctx.display, path=str(ctx.path),
        is_package=is_package, defs=defs, consts=consts,
        dunder_all=dunder_all, all_lineno=all_lineno,
        all_dynamic=all_dynamic, imports=imports, functions=functions,
        register_calls=register_calls, attr_uses=sorted(attr_uses),
        name_loads=sorted(name_loads),
        noqa=ctx._noqa)
