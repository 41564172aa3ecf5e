"""Rule base class and the stable-code rule registry.

Every rule has a stable ``RPRxxx`` code (never reused, never renumbered)
so suppression comments and CI baselines stay meaningful across
releases. Rules register themselves at import time via :func:`register`;
:func:`resolve_codes` turns a user's ``--select`` list into rule
instances, raising :class:`~repro.errors.CheckError` on unknown codes.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

from ..errors import CheckError

if TYPE_CHECKING:
    from .engine import FileContext, Violation
    from .program.context import ProgramContext

__all__ = ["Rule", "ProgramRule", "register", "all_rules", "resolve_codes"]

_CODE_RE = re.compile(r"^RPR\d{3}$")

#: code -> rule class, populated by the :func:`register` decorator.
RULES: dict[str, type["Rule"]] = {}


class Rule:
    """One static check: a stable code, a rationale, and a tree walk.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies` lets a rule scope itself to parts of the tree (e.g.
    observability conformance only makes sense inside the ``repro``
    package — test suites open ad-hoc spans on purpose).
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    #: One-sentence why — surfaced by ``repro lint --list-rules`` and DESIGN.md.
    rationale: ClassVar[str] = ""
    #: ``"file"`` rules see one :class:`FileContext` at a time;
    #: ``"program"`` rules (subclass :class:`ProgramRule`) see the whole
    #: tree at once through a ``ProgramContext``.
    scope: ClassVar[str] = "file"

    def applies(self, ctx: "FileContext") -> bool:
        """Whether this rule runs on ``ctx`` at all (default: every file)."""
        return True

    def check(self, ctx: "FileContext") -> Iterator["Violation"]:
        """Yield every violation of this rule in ``ctx.tree``."""
        raise NotImplementedError

    def violation(self, ctx: "FileContext", node: ast.AST,
                  message: str) -> "Violation":
        """Build a :class:`Violation` anchored at ``node``."""
        from .engine import Violation

        return Violation(code=self.code, message=message, path=ctx.display,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0))


class ProgramRule(Rule):
    """A rule that reasons across files instead of within one.

    The engine collects one :class:`~repro.checks.program.summary.FileSummary`
    per linted file, assembles them into a
    :class:`~repro.checks.program.context.ProgramContext` (symbol tables,
    import DAG, call graphs) and hands the whole thing to
    :meth:`check_program` exactly once per run. Per-line ``# repro:
    noqa[...]`` suppression applies to the reported locations the same
    way it does for per-file rules.
    """

    scope: ClassVar[str] = "program"

    def check(self, ctx: "FileContext") -> Iterator["Violation"]:
        raise CheckError(
            f"{self.code} is a whole-program rule; the engine must call "
            f"check_program(), not check()")

    def check_program(self, program: "ProgramContext") -> Iterator["Violation"]:
        """Yield every violation of this rule across ``program``."""
        raise NotImplementedError

    def program_violation(self, display: str, line: int, col: int,
                          message: str) -> "Violation":
        """Build a :class:`Violation` at an explicit location."""
        from .engine import Violation

        return Violation(code=self.code, message=message, path=display,
                         line=line, col=col)


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`RULES` (stable, unique code)."""
    if not _CODE_RE.match(cls.code):
        raise CheckError(f"rule code {cls.code!r} does not match RPRxxx")
    if cls.code in RULES:
        raise CheckError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, ordered by code."""
    return [RULES[code]() for code in sorted(RULES)]


def resolve_codes(select: Iterable[str] | None) -> list[Rule]:
    """Rules for a ``--select`` list (``None`` / empty means all).

    Raises :class:`~repro.errors.CheckError` naming each unknown code so
    a typo'd selection fails loudly instead of silently checking nothing.
    """
    if not select:
        return all_rules()
    codes = [c.strip().upper() for c in select if c.strip()]
    unknown = sorted(set(codes) - set(RULES))
    if unknown:
        raise CheckError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"known codes: {', '.join(sorted(RULES))}")
    return [RULES[code]() for code in sorted(set(codes))]
