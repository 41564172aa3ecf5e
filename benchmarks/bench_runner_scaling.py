"""Runner scaling smoke: serial vs 4-worker wall-clock on a fidelity grid.

Times a small fidelity grid through ``repro.runner`` twice — inline
(``jobs=1``) and across a 4-worker pool — asserting the aggregated
rows are byte-identical, and times a pure-orchestration grid of blocking
jobs that isolates the pool's dispatch/journal overhead from the
compute. The payload is printed as JSON.

The ≥2× speedup floor applies to whichever measurement the hardware can
physically deliver: the real fidelity grid needs ≥4 usable cores
(CPU-bound numpy in sibling processes cannot beat serial on fewer); the
orchestration grid overlaps blocking jobs and must clear the floor on
any machine.

Run as a pytest marker (seconds-scale budget)::

    PYTHONPATH=src python -m pytest -m runner_slow benchmarks/bench_runner_scaling.py -q

or as a script::

    PYTHONPATH=src python benchmarks/bench_runner_scaling.py
"""

from __future__ import annotations

import json
import os
import time

import pytest

SPEEDUP_FLOOR = 2.0
WORKERS = 4
SLEEP_JOBS = 8
SLEEP_SECONDS = 0.25

GRID = {"dataset": "tree_cycles", "conv": "gcn",
        "methods": ("gradcam", "gnnexplainer", "revelio")}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _config():
    from repro.eval import ExperimentConfig

    return ExperimentConfig(scale=float(os.environ.get("REPRO_SCALE", "0.2")),
                            num_instances=8, effort=0.1,
                            sparsities=(0.5, 0.7, 0.9), seed=0)


def _run_grid(workers: int) -> tuple[dict, float]:
    from repro.execution import ExecutionConfig
    from repro.runner import run_planned_experiment

    t0 = time.perf_counter()
    result = run_planned_experiment("fidelity", GRID["dataset"], GRID["conv"],
                                    GRID["methods"], config=_config(),
                                    execution=ExecutionConfig(jobs=workers))
    return result, time.perf_counter() - t0


def _run_sleep_grid(workers: int) -> float:
    from repro.runner import JobSpec, run_jobs

    jobs = [JobSpec(id=f"sleep:{i:03d}", kind="sleep",
                    payload={"seconds": SLEEP_SECONDS}) for i in range(SLEEP_JOBS)]
    t0 = time.perf_counter()
    records = run_jobs(jobs, workers=workers)
    elapsed = time.perf_counter() - t0
    assert all(r["status"] == "ok" for r in records.values())
    return elapsed


def run_benchmark() -> dict:
    from repro.runner import plan_artifact

    # Warm the zoo checkpoint + context before timing either path, so the
    # comparison measures explanation work, not one-off model training.
    plan_artifact("fidelity", GRID["dataset"], GRID["conv"], GRID["methods"],
                  config=_config())

    serial_result, serial_s = _run_grid(workers=1)
    parallel_result, parallel_s = _run_grid(workers=WORKERS)
    assert serial_result["rows"] == parallel_result["rows"], \
        "serial and 4-worker fidelity rows diverged"
    assert parallel_result["jobs"]["failed"] == 0

    sleep_serial_s = _run_sleep_grid(workers=1)
    sleep_parallel_s = _run_sleep_grid(workers=WORKERS)

    cpus = _usable_cpus()
    payload = {
        "cpus": cpus,
        "workers": WORKERS,
        "speedup_floor": SPEEDUP_FLOOR,
        "fidelity_grid": {
            "dataset": GRID["dataset"],
            "methods": list(GRID["methods"]),
            "jobs": parallel_result["jobs"]["total"],
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": round(parallel_s, 3),
            "speedup": round(serial_s / max(parallel_s, 1e-9), 2),
            "rows_identical": True,
        },
        "orchestration": {
            "jobs": SLEEP_JOBS,
            "job_seconds": SLEEP_SECONDS,
            "serial_seconds": round(sleep_serial_s, 3),
            "parallel_seconds": round(sleep_parallel_s, 3),
            "speedup": round(sleep_serial_s / max(sleep_parallel_s, 1e-9), 2),
        },
    }

    # The orchestration grid must always parallelize; the compute grid only
    # can when the machine actually has cores for the workers.
    assert payload["orchestration"]["speedup"] >= SPEEDUP_FLOOR, \
        f"pool failed to overlap blocking jobs: {payload['orchestration']}"
    if cpus >= WORKERS:
        assert payload["fidelity_grid"]["speedup"] >= SPEEDUP_FLOOR, \
            f"parallel fidelity grid below {SPEEDUP_FLOOR}x: {payload['fidelity_grid']}"
    return payload


@pytest.mark.runner_slow
def test_runner_scaling_smoke():
    payload = run_benchmark()
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
