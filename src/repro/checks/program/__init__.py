"""repro.checks.program — whole-program analysis for ``repro lint``.

The per-file rules (RPR001–RPR060) see one module at a time; this
package parses the linted tree once into a :class:`ProgramContext`
(module symbol tables, ``__all__`` resolution, the import DAG, call
graphs) and runs the cross-file rule families over it:

* **RPR100 architecture** — eager import cycles; the declared layering
  contract (:data:`~repro.checks.program.layering.LAYERS`);
* **RPR110 API surface** — dead public exports, ``__all__`` drift,
  cross-subpackage reach-ins to underscore-private modules;
* **RPR120 cross-file contracts** — kernel-registry backend signatures;
* **RPR130 dataflow** — blocking calls transitively reachable from
  :mod:`repro.serve` coroutines through the call graph.

Program rules run through the same CLI, ``--select``, suppression,
``--json``/``--format`` and exit-code contract as the per-file rules.
They consume :class:`~repro.checks.program.summary.FileSummary` digests
— plain data (no AST nodes) extracted once per file from the tree the
per-file rules already walked. Like the rest of :mod:`repro.checks`, this
package is pure stdlib: it must import (and lint) without the numeric
stack installed.
"""

from __future__ import annotations

from .context import ImportEdge, ProgramContext
from .summary import FileSummary, FunctionSummary, summarize

# Importing the rule modules registers their rules (stable-code registry).
from . import api_surface, contracts, dataflow, layering

__all__ = [
    "ProgramContext",
    "ImportEdge",
    "FileSummary",
    "FunctionSummary",
    "summarize",
]
