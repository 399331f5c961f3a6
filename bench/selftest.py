#!/usr/bin/env python3
"""Self-test of the benchmark's traced path, on reduced inputs.

    python3 bench/selftest.py

Runs the traced path (one plain and one traced child) of every workload twice
with reduced sizes and asserts that both runs are correct, that every
per-layer metric named in BENCHMARK.json is emitted, that every count and
ratio repeats exactly, and that the counts each workload exists to exercise
are not zero.  Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7
# counts that must be nonzero on the workload built to exercise them
EXERCISED = {
    "simulate_t500": ("lattice.evolve.steps", "lattice.stored_amps", "model.coin_matrix.calls"),
    # band_weights is reached only through limit's own binding of it
    "density_grid800": ("limit.branch_preimages.points", "spectral.band_weights.points"),
    "verify_full": ("lattice.evolve.steps", "model.coin_matrix.calls"),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in run.WORKLOADS.values():
        outcomes = []
        for attempt in range(2):
            work = run.WORK / f"selftest-{workload.name}-{attempt}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                deadline = time.monotonic() + run.RUN_LIMIT_S
                outcomes.append(run.traced_run(workload, SEED, work, deadline, small=True))
            finally:
                shutil.rmtree(work, ignore_errors=True)
        first, second = outcomes
        for i, outcome in enumerate(outcomes):
            if outcome.failed or outcome.errors:
                failures.append(f"{workload.name} run {i}: {outcome.errors}")
            if set(outcome.metrics) != set(units):
                failures.append(f"{workload.name} run {i}: emitted {sorted(outcome.metrics)}, "
                                f"expected {sorted(units)}")
        for name, unit in units.items():
            if unit != "s" and unit != "us" and first.metrics.get(name) != second.metrics.get(name):
                failures.append(f"{workload.name}: {name} = {first.metrics.get(name)!r} "
                                f"then {second.metrics.get(name)!r}")
        for name in EXERCISED[workload.name]:
            if not first.metrics.get(name):
                failures.append(f"{workload.name}: {name} is zero")
        print(f"{workload.name}: " + ", ".join(
            f"{name}={first.metrics.get(name)!r}" for name in EXERCISED[workload.name]))
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
