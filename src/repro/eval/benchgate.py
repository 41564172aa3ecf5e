"""Benchmark regression gate: diff the latest run against committed floors.

``BENCH_perf.json`` is the committed snapshot of the perf smoke benchmark —
every workload entry embeds the acceptance threshold it was generated
under (``floor`` / ``speedup_floor`` / ``ceiling`` / ``grad_tol``), and
``BENCH_history.jsonl`` accumulates one JSON line per run. The gate reads
the **latest parseable** history record and re-applies the **committed**
thresholds to it, so a perf regression (or a workload silently dropped
from the harness) fails CI even when the run itself exited green — the
smoke run on shared runners is advisory (``|| true``), the gate on the
committed artifacts is not.

Exit contract (``repro bench --check``):

* ``0`` — every committed workload present in the latest run and within
  its thresholds;
* ``1`` — at least one regression (missing workload, floor not met,
  ceiling exceeded, gradient parity broken);
* ``2`` — artifacts unreadable (missing files, no parseable history
  line, reference without a ``workloads`` table) — raised internally as
  :class:`~repro.errors.BenchError`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import BenchError

__all__ = [
    "load_latest_run",
    "load_reference",
    "check_run",
    "run_bench_check",
]

#: The batched-engine headline workloads: the committed global
#: ``speedup_floor`` must be met by at least MIN_WINS of them (mirrors the
#: acceptance rule the smoke benchmark itself applies).
HEADLINE_WORKLOADS = ("flowx", "gnn_lrp", "fidelity_curve")
MIN_WINS = 2


def load_latest_run(history_path: str | Path) -> dict:
    """Latest parseable record of ``BENCH_history.jsonl``.

    Scans from the end so a truncated final line (a run killed mid-append)
    falls back to the last complete record instead of failing the gate.
    """
    path = Path(history_path)
    if not path.is_file():
        raise BenchError(f"benchmark history not found: {path}")
    for line in reversed(path.read_text(encoding="utf-8").splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("payload"), dict):
            return record
    raise BenchError(f"no parseable run record in {path}")


def load_reference(reference_path: str | Path) -> dict:
    """The committed ``BENCH_perf.json`` payload (floors + workload table)."""
    path = Path(reference_path)
    if not path.is_file():
        raise BenchError(f"benchmark reference not found: {path}")
    try:
        reference = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BenchError(f"malformed benchmark reference {path}: {exc}") from exc
    if not isinstance(reference, dict) or \
            not isinstance(reference.get("workloads"), dict):
        raise BenchError(f"benchmark reference {path} has no workload table")
    return reference


def _check_workload(name: str, ref: dict, got: dict) -> list[str]:
    """Apply the thresholds embedded in one committed workload entry."""
    failures = []
    if "floor" in ref:
        value = got.get("speedup", 0.0)
        if value < ref["floor"]:
            failures.append(
                f"{name}: speedup {value} below committed floor {ref['floor']}")
    if "speedup_floor" in ref:
        # Which measurement the floor governs depends on the workload
        # shape: multi-size workloads gate on their largest size,
        # runner_scaling on the deterministic orchestration benchmark.
        if "speedup_largest" in ref:
            key, value = "speedup_largest", got.get("speedup_largest", 0.0)
        elif "orchestration" in ref:
            key = "orchestration.speedup"
            value = got.get("orchestration", {}).get("speedup", 0.0)
        else:
            key, value = "speedup", got.get("speedup", 0.0)
        if value < ref["speedup_floor"]:
            failures.append(
                f"{name}: {key} {value} below committed floor "
                f"{ref['speedup_floor']}")
    if "ceiling" in ref:
        value = got.get("overhead_fraction", float("inf"))
        if value >= ref["ceiling"]:
            failures.append(
                f"{name}: overhead_fraction {value} at or above committed "
                f"ceiling {ref['ceiling']}")
    if "grad_tol" in ref:
        value = got.get("max_grad_diff", float("inf"))
        if value >= ref["grad_tol"]:
            failures.append(
                f"{name}: max_grad_diff {value} at or above committed "
                f"tolerance {ref['grad_tol']}")
    return failures


def check_run(payload: dict, reference: dict) -> list[str]:
    """Failed checks of ``payload`` against committed floors (empty = pass).

    Every workload present in the committed reference must be present in
    the run — a workload that silently disappears from the harness is a
    regression, not a pass — and must satisfy the thresholds its committed
    entry embeds. The global ``speedup_floor``/:data:`MIN_WINS` rule over
    the headline batched-engine workloads is re-applied as well.
    """
    failures: list[str] = []
    ref_workloads = reference["workloads"]
    run_workloads = payload.get("workloads")
    if not isinstance(run_workloads, dict):
        return [f"run payload has no workload table "
                f"(keys: {sorted(payload)})"]
    for name, ref in sorted(ref_workloads.items()):
        got = run_workloads.get(name)
        if not isinstance(got, dict):
            failures.append(f"{name}: missing from the latest run")
            continue
        failures.extend(_check_workload(name, ref, got))

    floor = reference.get("speedup_floor")
    if floor is not None:
        trio = [n for n in HEADLINE_WORKLOADS if n in ref_workloads]
        wins = [n for n in trio
                if isinstance(run_workloads.get(n), dict)
                and run_workloads[n].get("speedup", 0.0) >= floor]
        need = min(MIN_WINS, len(trio))
        if len(wins) < need:
            failures.append(
                f"only {len(wins)} of {'/'.join(trio)} reached the committed "
                f"{floor}x floor (need {need}): {wins or 'none'}")
    return failures


def run_bench_check(*, history_path: str | Path = "BENCH_history.jsonl",
                    reference_path: str | Path = "BENCH_perf.json",
                    verbose: bool = True) -> int:
    """The ``repro bench --check`` entry point; returns the exit code."""
    try:
        record = load_latest_run(history_path)
        reference = load_reference(reference_path)
    except BenchError as exc:
        if verbose:
            print(f"bench --check: {exc}")
        return 2
    failures = check_run(record["payload"], reference)
    if verbose:
        stamp = record.get("timestamp", "?")
        sha = record.get("git_sha") or "?"
        if failures:
            print(f"bench --check: FAIL — run {stamp} ({sha}) regressed "
                  f"against committed floors:")
            for failure in failures:
                print(f"  {failure}")
        else:
            n = len(reference["workloads"])
            print(f"bench --check: PASS — run {stamp} ({sha}) meets the "
                  f"committed floors of all {n} workloads")
    return 1 if failures else 0
