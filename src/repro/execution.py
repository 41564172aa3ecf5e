"""ExecutionConfig: one object for every execution-mode option.

Every public experiment driver (``run_fidelity_experiment``,
``run_auc_experiment``, ``run_runtime_experiment``), the runner entry
:func:`repro.runner.run_planned_experiment` and the CLI accept the same
``execution=`` object. It says *how* an artifact runs (inline or on a
worker pool, journaled or not, traced or not), never *what* it computes:
for a fixed :class:`~repro.eval.experiments.ExperimentConfig` the numbers
are the same for every ``ExecutionConfig``. A field passed flat
(``jobs=4``) raises :class:`~repro.errors.ReproError` naming
``execution=ExecutionConfig(...)`` (:func:`reject_driver_kwargs`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ReproError

__all__ = ["ExecutionConfig", "reject_unknown_kwargs", "reject_driver_kwargs",
           "resolve_trace_path"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How an experiment request is executed (not *what* it computes).

    Attributes
    ----------
    jobs:
        Worker processes: ``None`` or 1 runs the planned jobs inline,
        ``N > 1`` across a crash-isolated worker pool.
    resume:
        JSONL journal checkpointing every job; an existing journal is
        resumed, skipping jobs it already holds as finished.
    timeout:
        Per-job timeout in seconds (enforced only with ``jobs >= 2``).
    retries:
        Per-job retry budget on worker failure.
    trace:
        Trace output: ``True`` writes a trace JSONL + RunManifest next to
        the resume journal (or a default path), a string/path writes to
        that file, falsy disables tracing.
    """

    jobs: int | None = None
    resume: str | None = None
    timeout: float | None = None
    retries: int = 1
    trace: bool | str | None = None

    @property
    def workers(self) -> int:
        """Worker-process count (``1`` runs inline)."""
        return self.jobs if self.jobs is not None else 1


def reject_unknown_kwargs(func_name: str, kwargs: dict,
                          valid: tuple[str, ...]) -> None:
    """Raise :class:`ReproError` naming the nearest valid option.

    ``kwargs`` is whatever remains in a ``**kwargs`` catch-all after the
    recognised names were popped; empty means the call was clean.
    """
    if not kwargs:
        return
    name = next(iter(kwargs))
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else \
        f" (valid options: {', '.join(sorted(valid))})"
    raise ReproError(f"{func_name}() got an unexpected keyword argument "
                     f"{name!r}{hint}")


def reject_driver_kwargs(func_name: str, kwargs: dict,
                         valid: tuple[str, ...]) -> None:
    """Raise :class:`ReproError` for any keyword left in a driver's ``**kwargs``.

    An :class:`ExecutionConfig` field passed flat (``jobs=2``), or a near
    miss of one (``job=2``), names the one place execution options go;
    any other name gets :func:`reject_unknown_kwargs`' did-you-mean hint.
    """
    if not kwargs:
        return
    name = next(iter(kwargs))
    execution_fields = tuple(f.name for f in fields(ExecutionConfig))
    close = difflib.get_close_matches(name, (*valid, *execution_fields), n=1)
    field = name if name in execution_fields else next(iter(close), None)
    if field in execution_fields:
        hint = "" if field == name else f" (did you mean {field!r}?)"
        raise ReproError(f"{func_name}() got an unexpected keyword argument "
                         f"{name!r}{hint}; execution options go in "
                         f"execution=ExecutionConfig({field}=...)")
    reject_unknown_kwargs(func_name, kwargs, valid)


def resolve_trace_path(trace: bool | str | None, resume: str | None,
                       default_name: str) -> Path | None:
    """Where a run's trace JSONL goes, or ``None`` when tracing is off.

    ``trace=True`` lands next to the resume journal when one exists,
    else ``default_name`` in the working directory; a string/path value
    is used verbatim.
    """
    if not trace:
        return None
    if trace is True:
        base = Path(resume).parent if resume else Path(".")
        return base / default_name
    return Path(trace)
