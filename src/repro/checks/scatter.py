"""Scatter-discipline rule: RPR050 keeps serial scatters out of hot paths.

``np.add.at`` / ``np.maximum.at`` are the serial buffered ufunc scatters
the sparse core exists to replace: every call site converted to a
plan-backed ``Tensor.scatter_add`` / ``kernel("scatter_add")`` dispatch
got 2–4× faster and became backend-swappable for free. A raw call
reintroduced anywhere in the library silently re-serializes that path —
no test fails, the bench floors just erode. This rule flags raw ufunc
``.at`` scatters in library code outside :mod:`repro.sparse` (where the
numpy backend legitimately *is* the dense-scatter reference
implementation). Call sites where no ``SegmentPlan`` can exist (e.g.
generic fancy indexing) carry an audited ``# repro: noqa[RPR050]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import FileContext, Violation, dotted_name
from .registry import Rule, register

__all__: list[str] = []

#: Dotted call names that bypass the kernel registry.
_SERIAL_SCATTERS = {
    "np.add.at": "Tensor.scatter_add / kernel(\"scatter_add\") over a SegmentPlan",
    "numpy.add.at": "Tensor.scatter_add / kernel(\"scatter_add\") over a SegmentPlan",
    "np.maximum.at": "kernel(\"segment_max\") over a SegmentPlan",
    "numpy.maximum.at": "kernel(\"segment_max\") over a SegmentPlan",
}


@register
class RawUfuncScatter(Rule):
    code = "RPR050"
    name = "raw-ufunc-scatter"
    rationale = ("A raw np.add.at/np.maximum.at in library code bypasses the "
                 "repro.sparse kernel registry — serial again, invisible to "
                 "backend selection; dispatch through a plan-backed "
                 "scatter_add/segment_max instead.")

    def applies(self, ctx: FileContext) -> bool:
        # Library code only. repro.sparse hosts the numpy dense-scatter
        # reference backend; tests and benchmarks keep raw scatters as the
        # oracle the kernels are checked against.
        return ctx.module_is("repro") and not ctx.module_is("repro.sparse")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            called = dotted_name(node.func)
            if called in _SERIAL_SCATTERS:
                yield self.violation(
                    ctx, node,
                    f"raw {called} bypasses the sparse kernel registry; "
                    f"use {_SERIAL_SCATTERS[called]} (or add an audited "
                    f"'# repro: noqa[RPR050]' where no segment plan can exist)")
