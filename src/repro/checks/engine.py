"""The lint engine: file discovery, AST contexts, suppression, results.

One :class:`FileContext` is built per Python file (source, parsed tree,
dotted module name, ``# repro: noqa`` line map) and handed to every
selected per-file rule; :func:`lint_paths` folds the per-file findings
into a :class:`LintResult`. Whole-program rules (scope ``"program"``,
see :mod:`repro.checks.program`) run after the per-file sweep over a
:class:`~repro.checks.program.context.ProgramContext` assembled from
one :class:`~repro.checks.program.summary.FileSummary` per file. Each
file is parsed and walked once: :attr:`FileContext.nodes` holds the
flattened tree every rule, the noqa expansion and the summary iterate.
The engine is pure stdlib — linting must not require the numeric stack —
and deterministic: files are visited in sorted order and violations are
reported sorted by location.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .registry import Rule, resolve_codes

__all__ = ["Violation", "FileContext", "LintResult", "lint_paths",
           "collect_files", "dotted_name", "module_name",
           "expand_noqa_map", "statement_spans"]

#: Per-line suppression: ``# repro: noqa`` (all codes) or
#: ``# repro: noqa[RPR001]`` / ``# repro: noqa[RPR001,RPR010]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache",
              ".mypy_cache", "build", "dist"}


@dataclass(frozen=True)
class Violation:
    """One rule finding at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "path": self.path,
                "line": self.line, "col": self.col}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    The shared resolver rules use to match calls like ``np.random.seed``
    without caring how deep the attribute chain is.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name(path: Path) -> str:
    """Dotted module name derived from ``__init__.py`` package nesting.

    Walks up from the file while the parent directory is a package, so
    ``src/repro/flows/cache.py`` resolves to ``repro.flows.cache`` no
    matter where the repository is checked out. Files outside any
    package resolve to their bare stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def statement_spans(tree: ast.Module,
                    nodes: Sequence[ast.AST] | None = None,
                    ) -> Iterable[tuple[int, int]]:
    """``(start, end)`` logical-line ranges for every statement.

    A simple statement spans its whole node (a call broken over four
    lines is one logical line); a compound statement (def/class/if/...)
    spans its decorators plus the header up to — not including — the
    first body statement. A ``# repro: noqa`` anywhere in the range
    applies to the whole range, which is what lets a suppression on a
    decorator or a trailing argument line cover the finding reported on
    the statement's first line. ``nodes`` is the tree already flattened
    by :func:`ast.walk` (:attr:`FileContext.nodes`), to skip a second walk.
    """
    for node in nodes if nodes is not None else ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        decorators = getattr(node, "decorator_list", [])
        start = min([d.lineno for d in decorators] + [node.lineno])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = node.end_lineno or node.lineno
        if end > start:
            yield start, end


def expand_noqa_map(literal: dict[int, frozenset[str] | None],
                    tree: ast.Module,
                    nodes: Sequence[ast.AST] | None = None,
                    ) -> dict[int, frozenset[str] | None]:
    """Spread per-line noqa entries across their logical lines."""
    if not literal:
        return {}
    effective: dict[int, frozenset[str] | None] = dict(literal)
    for start, end in statement_spans(tree, nodes):
        span = [n for n in range(start, end + 1) if n in literal]
        if not span:
            continue
        suppress_all = any(literal[n] is None for n in span)
        merged: frozenset[str] = frozenset().union(
            *(literal[n] or frozenset() for n in span))
        for line in range(start, end + 1):
            if suppress_all:
                effective[line] = None
            elif effective.get(line, frozenset()) is not None:
                effective[line] = merged | (effective.get(line) or frozenset())
    return effective


class FileContext:
    """Everything a rule may need about one source file.

    ``nodes`` is ``list(ast.walk(tree))``, built once: rules iterate it
    instead of walking the tree again.
    """

    def __init__(self, path: Path, display: str, source: str):
        self.path = path
        self.display = display
        self.source = source
        self.tree = ast.parse(source, filename=display)
        self.nodes: list[ast.AST] = list(ast.walk(self.tree))
        self.module = module_name(path)
        literal: dict[int, frozenset[str] | None] = {}
        lines = source.splitlines() if "noqa" in source else []
        for lineno, line in enumerate(lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            literal[lineno] = None if codes is None else frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
        self._noqa = expand_noqa_map(literal, self.tree, self.nodes)

    def module_is(self, *prefixes: str) -> bool:
        """Whether this file's module equals or lives under any prefix."""
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed on ``line`` by a noqa comment."""
        if line not in self._noqa:
            return False
        codes = self._noqa[line]
        return codes is None or code in codes


@dataclass
class LintResult:
    """Outcome of one lint run over a set of paths."""

    violations: list[Violation] = field(default_factory=list)
    #: ``(path, message)`` for files that could not be checked at all
    #: (unreadable, syntax error) — these fail the run independently.
    errors: list[tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0
    rule_codes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.errors

    @property
    def exit_code(self) -> int:
        """0 clean; 1 violations; 2 engine errors (unparsable files)."""
        if self.errors:
            return 2
        return 1 if self.violations else 0

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_checked": self.files_checked,
            "rules": list(self.rule_codes),
            "violations": [v.to_dict() for v in self.violations],
            "errors": [{"path": p, "message": m} for p, m in self.errors],
        }


def collect_files(paths: Sequence[str | Path]) -> list[tuple[Path, str]]:
    """Expand files/directories into ``(path, display)`` pairs, sorted.

    Directories are walked recursively for ``*.py``; cache and VCS
    directories are skipped. A path that does not exist is returned with
    itself so the caller can report it as an error.
    """
    out: list[tuple[Path, str]] = []
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            for file in sorted(base.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in file.parts):
                    continue
                out.append((file, file.as_posix()))
        else:
            out.append((base, base.as_posix()))
    return out


def lint_paths(paths: Sequence[str | Path],
               select: Iterable[str] | None = None,
               rules: Sequence[Rule] | None = None) -> LintResult:
    """Run the rule set over ``paths`` and return a :class:`LintResult`.

    ``select`` limits the run to specific codes (unknown codes raise
    :class:`~repro.errors.CheckError`); ``rules`` injects pre-built rule
    instances instead (tests). Violations on lines carrying a matching
    ``# repro: noqa[...]`` comment are dropped.
    """
    # Imported lazily: the program package registers rules through
    # repro.checks.__init__, so a top-level import here would be circular.
    from .program.context import ProgramContext
    from .program.summary import FileSummary, summarize

    active = list(rules) if rules is not None else resolve_codes(select)
    file_rules = [r for r in active if r.scope == "file"]
    program_rules = [r for r in active if r.scope == "program"]
    result = LintResult(rule_codes=[r.code for r in active])
    summaries: list[FileSummary] = []
    for path, display in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            result.errors.append((display, f"unreadable: {exc}"))
            continue
        try:
            ctx = FileContext(path, display, source)
        except SyntaxError as exc:
            result.errors.append((display, f"syntax error: {exc.msg} "
                                           f"(line {exc.lineno})"))
            continue
        result.files_checked += 1
        for rule in file_rules:
            if not rule.applies(ctx):
                continue
            for violation in rule.check(ctx):
                if not ctx.suppressed(violation.line, violation.code):
                    result.violations.append(violation)
        if program_rules:
            summaries.append(summarize(ctx))
    if program_rules:
        program = ProgramContext(summaries)
        for rule in program_rules:
            for violation in rule.check_program(program):
                if not program.suppressed(violation.path, violation.line,
                                          violation.code):
                    result.violations.append(violation)
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return result
