"""ExecutionConfig: one object for every execution-mode option.

Execution options grew organically across the runner and tracing
work — ``jobs=``/``resume=``/``timeout=``/``retries=``/``trace=`` on the
experiment drivers, each accepted by a different subset of entry points. :class:`ExecutionConfig` consolidates
them: every public driver (``run_fidelity_experiment``,
``run_auc_experiment``, ``run_runtime_experiment``) and the CLI accept
the same ``execution=`` object, and the old flat kwargs keep working for
one release through a :func:`DeprecationWarning` shim
(:func:`coerce_execution`).
"""

from __future__ import annotations

import difflib
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ReproError

__all__ = ["ExecutionConfig", "coerce_execution", "reject_unknown_kwargs",
           "accept_legacy_positionals", "resolve_trace_path"]

#: Old flat keyword names accepted (with a DeprecationWarning) by the
#: experiment drivers, mapped to their ExecutionConfig field.
_LEGACY_FIELDS = {
    "jobs": "jobs",
    "resume": "resume",
    "chunk_size": "chunk_size",
    "timeout": "timeout",
    "retries": "retries",
    "trace": "trace",
}


@dataclass(frozen=True)
class ExecutionConfig:
    """How an explain/experiment request is executed (not *what* it computes).

    Attributes
    ----------
    jobs:
        Worker processes for sharded runs; ``None`` (or 1 with no other
        sharding option) keeps the serial in-process path.
    resume:
        Artifact directory for checkpointed resume (implies the sharded
        path even when ``jobs`` is unset).
    chunk_size:
        Instances per shard job; ``None`` uses the planner default.
    timeout:
        Per-job timeout in seconds (sharded path only).
    retries:
        Per-job retry budget on worker failure.
    trace:
        Trace output: ``True`` writes a trace JSONL + RunManifest next to
        the resume artifact (or a default path), a string/path writes to
        that file, falsy disables tracing.
    """

    jobs: int | None = None
    resume: str | None = None
    chunk_size: int | None = None
    timeout: float | None = None
    retries: int = 1
    trace: bool | str | None = None

    @property
    def sharded(self) -> bool:
        """Whether this config routes through the sharded runner."""
        return self.jobs is not None or self.resume is not None

    @property
    def workers(self) -> int:
        """Worker-process count for the sharded path (defaults to 1)."""
        return self.jobs if self.jobs is not None else 1

    def runner_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.runner.run_planned_experiment`."""
        return {
            "workers": self.workers,
            "resume": self.resume,
            "chunks": self.chunk_size,
            "timeout": self.timeout,
            "retries": self.retries,
        }


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


def coerce_execution(func_name: str, execution: ExecutionConfig | None,
                     kwargs: dict, *,
                     extra_valid: tuple[str, ...] = ()) -> ExecutionConfig:
    """Fold legacy flat execution kwargs into an :class:`ExecutionConfig`.

    Pops any of ``jobs``/``resume``/``chunk_size``/``timeout``/``retries``/
    ``trace`` out of ``kwargs`` with a single
    :class:`DeprecationWarning`, overlaying them on ``execution`` (or a
    default config). Anything left in ``kwargs`` afterwards raises
    :class:`ReproError` via :func:`reject_unknown_kwargs`.
    """
    legacy = {}
    for old, field_name in _LEGACY_FIELDS.items():
        if old in kwargs:
            value = kwargs.pop(old)
            if value is not None:
                legacy[field_name] = value
    if legacy:
        warnings.warn(  # repro: sunset[2.0]
            f"passing {', '.join(sorted(legacy))} directly to {func_name}() "
            f"is deprecated; pass execution=ExecutionConfig(...) instead",
            DeprecationWarning, stacklevel=3,
        )
    valid = tuple(f.name for f in fields(ExecutionConfig)) + \
        ("execution",) + extra_valid
    reject_unknown_kwargs(func_name, kwargs, valid)
    config = execution if execution is not None else ExecutionConfig()
    if legacy:
        config = replace(config, **legacy)
    return config


def accept_legacy_positionals(func_name: str, legacy_args: tuple,
                              names: tuple[str, ...]) -> dict:
    """Map extra positional args to their old parameter names, warning once.

    The keyword-only redesign moved everything after the leading
    positionals behind ``*``; callers still passing them positionally get
    one release of grace with a :class:`DeprecationWarning`.
    """
    if not legacy_args:
        return {}
    if len(legacy_args) > len(names):
        # Mirrors Python's own too-many-positionals TypeError (pinned by
        # tests/obs/test_api_compat.py).
        raise TypeError(  # repro: noqa[RPR012]
            f"{func_name}() takes at most {len(names)} optional positional "
            f"argument{'s' if len(names) != 1 else ''} "
            f"({', '.join(names)}); got {len(legacy_args)}")
    taken = names[:len(legacy_args)]
    warnings.warn(  # repro: sunset[2.0]
        f"passing {', '.join(taken)} positionally to {func_name}() is "
        f"deprecated; pass them as keyword arguments",
        DeprecationWarning, stacklevel=3,
    )
    return dict(zip(taken, legacy_args))


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
