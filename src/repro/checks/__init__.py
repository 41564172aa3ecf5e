"""repro.checks — repo-aware static analysis for the reproduction.

An AST lint pass that machine-checks the invariants the reproduction's
claims rest on, in these families:

* **determinism** — no module-global RNG state, no wall-clock seeds, no
  set-order-sensitive iteration in scoring code (RPR001–RPR003);
* **error discipline** — no bare/swallowing excepts, library raises stay
  inside the ``ReproError`` hierarchy (RPR010–RPR012);
* **API contracts** — public explain/eval entry points keyword-only
  (RPR020);
* **observability conformance** — every span/stage/counter name resolves
  against the declared registry in :mod:`repro.obs.names`
  (RPR030–RPR031);
* **scatter discipline** — no raw ``np.add.at``/``np.maximum.at`` in
  library code outside :mod:`repro.sparse`; hot scatters dispatch
  through the plan-backed kernel registry (RPR050);
* **event-loop discipline** — no blocking calls (``time.sleep``, sync
  subprocess/socket/file waits) inside :mod:`repro.serve` coroutines;
  slow work runs on the coalescer's executor thread (RPR060);
* **whole-program analysis** (:mod:`repro.checks.program`) — import
  cycles and the declared layering contract (RPR100–RPR101), dead
  exports / ``__all__`` drift / private-module reach-ins
  (RPR110–RPR112), kernel-backend signature contracts (RPR120), and
  transitive blocking-call reachability from serve coroutines (RPR130).

Run as ``repro lint src tests benchmarks examples`` (CI gates on it) or
through :func:`lint_paths` / :func:`run_lint`. Per-line suppression:
``# repro: noqa[RPR012]`` (with the code — bare ``# repro: noqa``
suppresses every rule on the line); a noqa anywhere on a multi-line
statement or its decorators covers the whole logical line. Every run
parses each file once and walks its tree once (there is no parse
cache: CI always lints a fresh checkout); ``--format sarif`` emits
SARIF 2.1.0 for code-scanning upload.

The pass is *repo-aware*: rules read the live ``ReproError`` hierarchy
and the ``repro.obs.names`` registry from the package itself, so
extending those automatically extends the lint without touching the
rules.
"""

from __future__ import annotations

from .engine import FileContext, LintResult, Violation, collect_files, lint_paths
from .registry import RULES, ProgramRule, Rule, all_rules, register, resolve_codes
from .report import format_rule_listing, run_lint
from .sarif import to_sarif

# Importing the rule modules registers their rules (stable-code registry);
# program comes last — its rules consume the engine's FileSummary digests.
from . import (api, blocking, determinism, discipline, obsconf, program,
               scatter)

__all__ = [
    "Violation",
    "FileContext",
    "LintResult",
    "lint_paths",
    "collect_files",
    "Rule",
    "ProgramRule",
    "RULES",
    "register",
    "all_rules",
    "resolve_codes",
    "run_lint",
    "format_rule_listing",
    "to_sarif",
]
