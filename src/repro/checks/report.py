"""Lint output: text, ``--json``, and SARIF 2.1.0 forms.

:func:`run_lint` is the single entry point both the ``repro lint`` CLI
subcommand and tests call: it resolves the rule selection (optionally
narrowed to the per-file or whole-program scope), lints, prints to the
given stream in the requested format, and returns the process exit code
(0 clean, 1 violations, 2 engine/usage errors).
"""

from __future__ import annotations

import json
import sys
from typing import Sequence, TextIO

from ..errors import CheckError
from .engine import lint_paths
from .registry import all_rules, resolve_codes

__all__ = ["run_lint", "format_rule_listing"]

_FORMATS = ("text", "json", "sarif")
_SCOPES = ("all", "file", "program")


def format_rule_listing() -> list[str]:
    """``code  name  rationale`` rows for every registered rule."""
    rows = []
    for rule in all_rules():
        rows.append(f"{rule.code}  {rule.name:<24} {rule.rationale}")
    return rows


def run_lint(paths: Sequence[str], *, select: Sequence[str] | None = None,
             json_output: bool = False, list_rules: bool = False,
             output_format: str | None = None, scope: str = "all",
             stream: TextIO | None = None) -> int:
    """Lint ``paths`` and print findings; returns the exit code.

    ``json_output=True`` is the legacy spelling of
    ``output_format="json"``; ``scope`` narrows the run to per-file or
    whole-program rules (the CI job split).
    """
    out = stream if stream is not None else sys.stdout
    fmt = output_format or ("json" if json_output else "text")
    if list_rules:
        for row in format_rule_listing():
            print(row, file=out)
        return 0

    def usage_error(message: str) -> int:
        if fmt == "text":
            print(f"error: {message}", file=out)
        else:
            print(json.dumps({"error": message}), file=out)
        return 2

    if fmt not in _FORMATS:
        return usage_error(f"unknown format {fmt!r}; "
                           f"expected one of {', '.join(_FORMATS)}")
    if scope not in _SCOPES:
        return usage_error(f"unknown scope {scope!r}; "
                           f"expected one of {', '.join(_SCOPES)}")
    try:
        rules = resolve_codes(select)
    except CheckError as exc:
        return usage_error(str(exc))
    if scope != "all":
        rules = [r for r in rules if r.scope == scope]
    result = lint_paths(paths, rules=rules)
    if fmt == "json":
        print(json.dumps(result.to_dict(), indent=2), file=out)
        return result.exit_code
    if fmt == "sarif":
        from .sarif import to_sarif

        print(json.dumps(to_sarif(result), indent=2), file=out)
        return result.exit_code
    for violation in result.violations:
        print(violation.format(), file=out)
    for path, message in result.errors:
        print(f"{path}: error: {message}", file=out)
    n = len(result.violations)
    if result.clean:
        print(f"{result.files_checked} file(s) clean "
              f"({len(result.rule_codes)} rules)", file=out)
    else:
        print(f"{n} violation(s), {len(result.errors)} error(s) in "
              f"{result.files_checked} file(s)", file=out)
    return result.exit_code
