"""Batch explanation helpers.

Experiment-scale explanation of many instances with progress reporting,
optional persistence and graceful per-instance failure capture — the
ergonomics layer a downstream user reaches for first.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ..execution import reject_unknown_kwargs
from .base import Explainer, Explanation
from .io import save_explanation

if TYPE_CHECKING:  # avoid a circular import; Instance is duck-typed below
    from ..eval.fidelity import Instance

__all__ = ["explain_instances"]


#: Characters of formatted traceback kept per captured failure.
TRACEBACK_LIMIT = 1500


@dataclass
class BatchResult:
    """Outcome of a batch-explanation run.

    Each failure is ``(instance_index, "ExcType: message\\n<truncated
    traceback>")`` — enough to triage a crashed instance without re-running
    the batch.
    """

    explanations: list[Explanation]
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def num_succeeded(self) -> int:
        return len(self.explanations)

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    def __repr__(self) -> str:
        return f"BatchResult(succeeded={self.num_succeeded}, failed={self.num_failed})"


def explain_instances(explainer: Explainer, instances: "Sequence[Instance]",
                      *,
                      mode: str = "factual",
                      progress: Callable[[int, int], None] | None = None,
                      save_dir: str | Path | None = None,
                      raise_on_error: bool = False,
                      **kwargs) -> BatchResult:
    """Explain a list of instances, collecting failures instead of dying.

    Everything after ``(explainer, instances)`` is keyword-only; unknown
    keywords raise :class:`~repro.errors.ReproError` naming the nearest
    valid option.

    Parameters
    ----------
    explainer:
        Any :class:`Explainer` (already fitted, for group-level methods).
    instances:
        ``Instance(graph, target)`` records whose ``target`` is an
        :class:`~repro.explain.target.ExplainTarget` (or ``None`` for
        graph tasks).
    progress:
        Optional callback ``(done, total)`` after each instance.
    save_dir:
        When given, each explanation is also written to
        ``<save_dir>/explanation_<i>.npz``.
    raise_on_error:
        Re-raise the first per-instance error instead of recording it.
    """
    reject_unknown_kwargs("explain_instances", kwargs,
                          ("mode", "progress", "save_dir", "raise_on_error"))
    if save_dir is not None:
        save_dir = Path(save_dir)
        save_dir.mkdir(parents=True, exist_ok=True)

    explanations: list[Explanation] = []
    failures: list[tuple[int, str]] = []
    total = len(instances)
    for i, inst in enumerate(instances):
        try:
            explanation = explainer.explain(inst.graph, target=inst.target, mode=mode)
        except Exception as exc:  # stray numpy ValueError/FloatingPointError
            # must not kill the batch any more than a ReproError would
            if raise_on_error:
                raise
            tb = traceback.format_exc()[-TRACEBACK_LIMIT:]
            failures.append((i, f"{type(exc).__name__}: {exc}\n{tb}"))
            continue
        explanations.append(explanation)
        if save_dir is not None:
            save_explanation(explanation, save_dir / f"explanation_{i}.npz")
        if progress is not None:
            progress(i + 1, total)
    return BatchResult(explanations=explanations, failures=failures)
