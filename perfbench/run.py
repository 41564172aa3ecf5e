"""Repository benchmark: one workload run in a fresh, isolated process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain_cora_x1 --seed 1 --seconds 20 --trace 0

Starts ``perfbench/workload.py`` as a child process with its own empty
model cache (``REPRO_CACHE``) and single-threaded BLAS/OpenMP, relays its
report, and prints the result object as the last line of standard
output. Exits non-zero without a result when the library is missing, the
child fails or the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run artifacts (per-run model caches, spans, work signatures).
RUNTIME_DIR = HERE / ".runs"
#: Hard limit on one run, below the 180 s a run may take.
TIMEOUT_S = 170


def pinned_env() -> dict[str, str]:
    """The ``NAME=VALUE`` prefix of the command recorded in BENCHMARK.json.

    That prefix is the one record of the run's pinning: one BLAS/OpenMP
    thread, so the numerics thread plus the serve event loop stay within
    two cores; one malloc arena, so peak RSS does not depend on which
    thread allocated first; a fixed hash seed. Applying it here as well
    makes a bare ``python3 perfbench/run.py`` run the recorded setting.
    """
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return dict(arg.split("=", 1) for arg in command if "=" in arg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the child before the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        pinned = pinned_env()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the command in BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    RUNTIME_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNTIME_DIR))
    result_path = run_dir / "result.json"
    env = dict(os.environ, **pinned, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE=str(run_dir / "models"))
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--runtime-dir", str(RUNTIME_DIR), "--result", str(result_path),
               "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not result_path.is_file():
            print(f"perfbench: workload exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print(result_path.read_text().strip(), flush=True)
        return 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
