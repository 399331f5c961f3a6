#!/usr/bin/env python3
"""Benchmark of the altwalk command line: end-to-end cost and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs ``altwalk.cli.main([...])`` in a fresh child process
(``bench/child.py``), one at a time from this single parent: a closed loop with
one client.  The child imports the package from ``src/`` of the checkout this
script lives in and pins OMP/OpenBLAS/MKL to one thread each.

``--trace 0`` runs the workload again and again, starting another run only
while it is expected to end within ``--seconds``, and reports the median; a few
import-only children before each run and after the last give ``setup_s``.  ``--trace 1`` runs the
workload once plainly and once with every public function of the altwalk
modules wrapped (``bench/spans.py``), checks that both wrote identical files,
and reports the per-layer metrics of the traced run plus the difference of the
two wall times (``trace.overhead_s``).

Every run checks its outputs (``bench/checks.py``): the exit code, equal files
across repeats, the invariants of each output, the names and order of the
verify reports and, at seed 0, the SHA-256 digests recorded in
``bench/digests.json``.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics; the lines above it
print every metric by name with its unit and the machine the run was made on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 0  # the seed whose output digests are recorded
# import-only children before each workload run and after the last one; one more
# warms the caches first.  Spread over the run, they sample the host's speed at
# several moments: taken in one burst, their median moved by up to 30% from run
# to run on a 2-vCPU VM.
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed

# moduli of the reference coin pair; the seeded workloads draw phases and spinor
REF_A1_SQ, REF_A2_SQ = 0.9, 0.1
# the reports of the reduced verify run (--only lattice_vs_spectral --only support)
SMALL_VERIFY_REPORTS = ["lattice_vs_spectral", "support_containment", "support_tightness"]

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


class ProgramError(Exception):
    """The altwalk package cannot be imported from the checkout."""


def seeded_coin_flags(seed: int) -> list[str]:
    """Reference moduli, six phases uniform in [-pi, pi) and a random unit spinor."""
    rng = random.Random(seed)
    flags = [f"--a1_sq={REF_A1_SQ!r}", f"--a2_sq={REF_A2_SQ!r}"]
    for key in ("alpha1", "beta1", "delta1", "alpha2", "beta2", "delta2"):
        flags.append(f"--{key}={rng.uniform(-math.pi, math.pi)!r}")
    psi = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in psi))
    for key, x in zip(("psi1_re", "psi1_im", "psi2_re", "psi2_im"), psi):
        flags.append(f"--{key}={x / norm!r}")
    return flags


@dataclass(frozen=True)
class Workload:
    name: str
    files: tuple[str, ...]  # outputs compared across repeats and traced/untraced
    sizes: tuple[int, int] = (0, 0)  # steps or grid_n: full, and reduced for the self-test

    def size(self, small: bool) -> int:
        return self.sizes[1] if small else self.sizes[0]

    def argv(self, seed: int, small: bool) -> list[str]:
        if self.name == "simulate_t500":
            return ["simulate", "--steps", str(self.size(small)), *seeded_coin_flags(seed)]
        if self.name == "density_grid800":
            return ["density", "--grid_n", str(self.size(small)), *seeded_coin_flags(seed)]
        argv = ["verify", "--seed", str(seed)]
        if small:
            argv += ["--only", "lattice_vs_spectral", "--only", "support"]
        return argv

    def check(self, out: Path, seed: int, small: bool) -> list[str]:
        if self.name == "simulate_t500":
            return checks.check_simulate(out, self.size(small))
        if self.name == "density_grid800":
            return checks.check_density(out, self.size(small), REF_A1_SQ, REF_A2_SQ)
        names = SMALL_VERIFY_REPORTS if small else recorded_digests(self.name)["report_names"]
        return checks.check_verify(out, seed, names)


WORKLOADS = {w.name: w for w in (
    Workload("simulate_t500", ("distribution.csv", "moments.json"), (500, 40)),
    Workload("density_grid800", ("density.csv", "boundary.csv"), (800, 96)),
    Workload("verify_full", ("reports.jsonl",)),
)}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    env.pop("PYTHONSTARTUP", None)
    return env


@dataclass
class ChildRun:
    ok: bool
    wall_s: float = 0.0
    elapsed_s: float = 0.0  # spawn to exit, as seen by the parent
    maxrss_kb: int = 0
    digests: dict | None = None
    metrics: dict | None = None
    error: str = ""


def run_child(workload: Workload, seed: int, small: bool, run_dir: Path, trace: bool,
              deadline: float) -> ChildRun:
    """Run the workload once in a fresh interpreter; outputs go to run_dir/out."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "argv": workload.argv(seed, small) + ["--out", str(out)],
        "out": str(out),
        "result": str(run_dir / "result.json"),
        "trace": trace,
        "spans": str(WORK / f"spans-{workload.name}.tsv"),
    }
    start = time.monotonic()
    with open(run_dir / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), "run", json.dumps(spec)],
                                  cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            return ChildRun(False, elapsed_s=time.monotonic() - start, error="killed: out of time")
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not (run_dir / "result.json").is_file():
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        return ChildRun(False, elapsed_s=elapsed, error=f"child exited {proc.returncode}: {tail}")
    result = json.loads((run_dir / "result.json").read_text())
    run = ChildRun(result["exit_code"] == 0, result["wall_s"], elapsed, result["maxrss_kb"],
                   metrics=result.get("metrics"))
    if not run.ok:
        run.error = f"altwalk exited {result['exit_code']}"
    else:
        run.digests = {name: checks.sha256_file(out / name) for name in workload.files}
    return run


def setup_samples(count: int, deadline: float) -> list[float]:
    """Seconds from spawning an interpreter to its ``import altwalk.cli`` being done."""
    samples = []
    for i in range(count + 1):  # the first import fills the bytecode and file caches
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(CHILD), "setup", str(SRC)], cwd=ROOT,
                              env=_child_env(), stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
        if proc.returncode != 0:
            raise ProgramError(f"cannot import altwalk.cli from {SRC}: {proc.stderr[-2000:]}")
        if i:
            samples.append(float(proc.stdout) - start)
    return samples


def recorded_digests(name: str) -> dict:
    return json.loads(DIGESTS.read_text())["workloads"][name]


def output_errors(workload: Workload, seed: int, small: bool, out: Path) -> list[str]:
    errors = workload.check(out, seed, small)
    if seed == DEFAULT_SEED and not small:
        errors += checks.check_digests(out, recorded_digests(workload.name))
    return errors


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: list[str]
    metrics: dict  # name -> value
    walls: list[float]


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, deadline: float) -> Outcome:
    setup: list[float] = []
    runs: list[ChildRun] = []
    errors: list[str] = []
    first_ok = None  # directory of the first good run, kept for the output checks
    first_digests = None
    start = time.monotonic()
    while True:
        setup += setup_samples(SETUP_PROBES, deadline)
        run_dir = work / f"run{len(runs)}"
        run = run_child(workload, seed, False, run_dir, trace=False, deadline=deadline)
        runs.append(run)
        if run.ok and first_ok is None:
            first_ok, first_digests = run_dir, run.digests
        elif run.ok and run.digests != first_digests:
            run.ok = False
            run.error = "output files differ from the first run's"
        if run.error:
            errors.append(f"run {len(runs) - 1}: {run.error}")
        if run_dir != first_ok:
            shutil.rmtree(run_dir)
        # start another run only if it is expected to end within the budget
        if time.monotonic() - start + run.elapsed_s > seconds:
            break
    setup += setup_samples(SETUP_PROBES, deadline)
    good = [r for r in runs if r.ok]
    failed = len(runs) - len(good)
    if first_ok is not None:
        bad = output_errors(workload, seed, False, first_ok / "out")
        if bad:  # every good run wrote these same bytes
            errors += bad
            failed = len(runs)
    walls = [r.wall_s for r in good]
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.maxrss_kb for r in good) / 1024.0 if good else 0.0,
        "ok_ratio": 1.0 - failed / len(runs),
    }
    return Outcome(len(runs), failed, errors, metrics, walls)


def traced_run(workload: Workload, seed: int, work: Path, deadline: float, small=False) -> Outcome:
    plain = run_child(workload, seed, small, work / "plain", trace=False, deadline=deadline)
    traced = run_child(workload, seed, small, work / "traced", trace=True, deadline=deadline)
    errors = [f"{label} run: {r.error}" for label, r in (("plain", plain), ("traced", traced))
              if r.error]
    failed = (not plain.ok) + (not traced.ok)
    if not failed:
        bad = output_errors(workload, seed, small, work / "traced" / "out")
        if plain.digests != traced.digests:
            bad.append("traced and untraced runs wrote different files")
        if bad:
            errors += bad
            failed = 2
    metrics = dict(traced.metrics or {})
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return Outcome(2, failed, errors, metrics, [])


def _tail(walls: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if there are enough."""
    n = len(walls)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile (needs 11)"
    ordered = sorted(walls)
    return f"n={n}, p{100.0 * (n - 10) / n:.1f}={ordered[n - 11]!r} s"


def _read_git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "git_commit": _read_git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def _metric_specs(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: Workload, seed: int, trace: bool, outcome: Outcome) -> dict:
    """Print the human-readable lines and return the result object."""
    units = _metric_specs(trace)
    missing = sorted(set(units) - set(outcome.metrics))
    errors = outcome.errors + [f"metric {name} was not measured" for name in missing]
    print(f"workload {workload.name} seed {seed} trace {int(trace)}")
    print("machine " + json.dumps(machine_facts(seed), sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        value = outcome.metrics.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value!r} {unit}")
    if not trace:
        print(f"  wall_s samples: {outcome.walls!r}; {_tail(outcome.walls)}")
    print(f"  fail_ratio = {outcome.failed / outcome.attempted!r} "
          f"({outcome.failed} of {outcome.attempted} runs)")
    for error in errors:
        print(f"  check failed: {error}")
    return {"correct": not errors and outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "altwalk" / "cli.py").is_file():
        print(f"error: no altwalk source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            outcome = traced_run(workload, args.seed, work, deadline)
        else:
            outcome = timed_run(workload, args.seed, args.seconds, work, deadline)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(workload, args.seed, bool(args.trace), outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
