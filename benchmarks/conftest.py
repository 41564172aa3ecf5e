"""Shared benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure), writes
its rows to ``benchmarks/results/<artifact>.txt`` and benchmarks a
representative unit of the underlying computation with pytest-benchmark.

Cost knobs (environment):

``REPRO_SCALE``          dataset scale (default 0.2 for benches)
``REPRO_INSTANCES``      instances per dataset (paper: 50; default 4)
``REPRO_EFFORT``         explainer budget multiplier (paper: 1.0; default 0.1)
``REPRO_BENCH_DATASETS`` comma list restricting dataset coverage
``REPRO_BENCH_CONVS``    comma list restricting model coverage
``REPRO_BENCH_FULL=1``   run the paper's full grid (hours on CPU)
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_DEFAULTS = {
    "REPRO_SCALE": "0.2",
    "REPRO_INSTANCES": "4",
    "REPRO_EFFORT": "0.1",
}


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)
    for key, value in _DEFAULTS.items():
        os.environ.setdefault(key, value)


def full_grid() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_datasets(default: tuple[str, ...]) -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_DATASETS")
    if raw:
        return tuple(d.strip() for d in raw.split(",") if d.strip())
    if full_grid():
        from repro.datasets import DATASET_NAMES

        return DATASET_NAMES
    return default


def bench_convs(default: tuple[str, ...] = ("gcn",)) -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_CONVS")
    if raw:
        return tuple(c.strip() for c in raw.split(",") if c.strip())
    if full_grid():
        return ("gcn", "gin", "gat")
    return default


def write_result(name: str, rows: list[str], header: str | None = None) -> Path:
    """Write artifact rows to benchmarks/results/<name>.txt and echo them."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    lines = []
    if header:
        lines.append(header)
        lines.append("=" * len(header))
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print(f"\n[{name}]")
    print(text)
    return path


def require_no_failures(*results: dict) -> None:
    """Fail the bench when any job of an artifact failed.

    A method whose jobs all failed is left out of the rows, so without
    this check it would silently vanish from the written table.
    """
    lines = []
    for result in results:
        for key, fails in result.get("failures", {}).items():
            for f in fails:
                lines.append(f"  {key}: {f['job']}: {f['error']['type']}: "
                             f"{f['error']['message']}")
    if lines:
        pytest.fail(f"{len(lines)} job(s) failed:\n" + "\n".join(lines))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
