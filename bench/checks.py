"""Correctness checks on the files the benchmark's CLI runs write.

Each check returns a list of error strings; an empty list means the output
is correct.  The invariants are recomputed here from the files alone (and, for
the support ellipses, from the closed-form semi-axes), not through altwalk.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

PROB_TOL = 1e-10  # |total probability - 1| allowed in a simulated distribution
MEAN_TOL = 1e-9  # moments.json mean velocity against the CSV's own mean
BOUNDARY_TOL = 1e-9  # the CLI's support boundary band (SUPPORT_BOUNDARY_TOL)
# |grid mass - 1| allowed for the midpoint sum of f over the velocity grid, at
# grid_n >= 800 and below; the inverse-square-root edges of f make the sum
# converge slowly in grid_n
MASS_TOL_FINE = 0.01
MASS_TOL_COARSE = 0.05


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def report_line_digests(path) -> dict[str, str]:
    """SHA-256 of each reports.jsonl line (without its newline), keyed by report name."""
    out = {}
    with open(path, "rb") as fh:
        for line in fh.read().splitlines():
            out[json.loads(line)["name"]] = hashlib.sha256(line).hexdigest()
    return out


def _read_csv(path, header: str, columns: int) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        return np.empty((0, columns)), [f"{path.name}: header {first!r}, expected {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != columns:
        return data, [f"{path.name}: {data.shape[1]} columns, expected {columns}"]
    return data, []


def check_simulate(out, steps: int) -> list[str]:
    moments = json.loads((out / "moments.json").read_text(encoding="ascii"))
    errors = []
    if moments["time"] != steps:
        errors.append(f"moments.json: time {moments['time']}, expected {steps}")
    if abs(moments["total_probability"] - 1.0) > PROB_TOL:
        errors.append(f"moments.json: total probability {moments['total_probability']!r}")
    data, bad = _read_csv(out / "distribution.csv", "x1,x2,probability", 3)
    if bad:
        return errors + bad
    x1, x2, prob = data.T
    if len(prob) != moments["sites"]:
        errors.append(f"distribution.csv: {len(prob)} rows, moments.json says {moments['sites']}")
    total = math.fsum(prob)
    if abs(total - 1.0) > PROB_TOL:
        errors.append(f"distribution.csv: total probability {total!r}")
    if not np.all(prob > 0.0):
        errors.append("distribution.csv: a listed site has probability <= 0")
    # from the origin every step moves each coordinate by +-1
    if np.any((x1 - steps) % 2 != 0) or np.any((x2 - steps) % 2 != 0):
        errors.append("distribution.csv: a site of the wrong parity carries probability")
    if np.max(np.abs(data[:, :2]), initial=0.0) > steps:
        errors.append("distribution.csv: a site lies beyond the light cone")
    if steps >= 1:
        mean = (float(np.dot(prob, x1)) / steps, float(np.dot(prob, x2)) / steps)
        if max(abs(m - r) for m, r in zip(mean, moments["mean_velocity"])) > MEAN_TOL:
            errors.append(f"moments.json: mean velocity {moments['mean_velocity']} "
                          f"but the CSV gives {list(mean)}")
    return errors


def _ellipse_forms(a1_sq: float, a2_sq: float, v1, v2):
    """Quadratic forms of the two support ellipses (closed-form semi-axes)."""
    a = math.sqrt(a1_sq) * math.sqrt(a2_sq)
    b = math.sqrt(1.0 - a1_sq) * math.sqrt(1.0 - a2_sq)
    root = math.sqrt(max((1.0 - a * a - b * b) ** 2 - 4.0 * a * a * b * b, 0.0))
    r1, r2 = 1.0 + a * a - b * b + root, 1.0 - a * a + b * b - root
    t1, t2 = 1.0 + a * a - b * b - root, 1.0 - a * a + b * b + root
    u1 = (v1 + v2) / math.sqrt(2.0)
    u2 = (v1 - v2) / math.sqrt(2.0)
    return u1 * u1 / r1 + u2 * u2 / r2, u1 * u1 / t1 + u2 * u2 / t2


def check_density(out, grid_n: int, a1_sq: float, a2_sq: float) -> list[str]:
    data, errors = _read_csv(out / "density.csv", "v1,v2,f,inside", 4)
    if errors:
        return errors
    if data.shape[0] != grid_n * grid_n:
        return [f"density.csv: {data.shape[0]} rows, expected {grid_n * grid_n}"]
    v1, v2, f, inside = data.T
    mid = -1.0 + (2.0 * np.arange(grid_n) + 1.0) / grid_n
    if not (np.array_equal(v1, np.repeat(mid, grid_n)) and np.array_equal(v2, np.tile(mid, grid_n))):
        errors.append("density.csv: velocity grid is not the cell midpoints, x1 outer")
    if not (np.all(np.isfinite(f)) and np.all(f >= 0.0)):
        errors.append("density.csv: f is negative or not finite")
    if not np.all((inside == 0.0) | (inside == 1.0)) or np.any(f[inside == 0.0] != 0.0):
        errors.append("density.csv: inside flag not 0/1, or f nonzero outside the support")
    q_r, q_t = _ellipse_forms(a1_sq, a2_sq, v1, v2)
    worst = np.maximum(q_r, q_t)
    expected = worst < 1.0 - BOUNDARY_TOL
    unclear = np.abs(worst - (1.0 - BOUNDARY_TOL)) < 1e-12
    if np.any((expected != (inside == 1.0)) & ~unclear):
        errors.append("density.csv: inside flag disagrees with the two-ellipse support")
    mass = math.fsum(f) * (2.0 / grid_n) ** 2 / (2.0 * math.pi) ** 2
    if abs(mass - 1.0) > (MASS_TOL_FINE if grid_n >= 800 else MASS_TOL_COARSE):
        errors.append(f"density.csv: grid mass {mass!r} is not 1")
    bdata, bad = _read_csv(out / "boundary.csv", "v1,v2", 2)
    if bad:
        return errors + bad
    if bdata.shape[0] != max(grid_n, 64):
        errors.append(f"boundary.csv: {bdata.shape[0]} points, expected {max(grid_n, 64)}")
    q_r, q_t = _ellipse_forms(a1_sq, a2_sq, bdata[:, 0], bdata[:, 1])
    if np.max(np.abs(np.maximum(q_r, q_t) - 1.0), initial=0.0) > BOUNDARY_TOL:
        errors.append("boundary.csv: a point is off the support boundary")
    return errors


def check_verify(out, seed: int, names: list[str]) -> list[str]:
    """Every report passes, carries the seed, and the reports are ``names`` in order."""
    reports = [json.loads(line) for line in
               (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()]
    got = [report["name"] for report in reports]
    errors = [] if got == names else [f"reports.jsonl: reports {got}, expected {names}"]
    for report in reports:
        if report["passed"] is not True:
            errors.append(f"report {report['name']} failed: {report['metric']!r} > {report['tolerance']!r}")
        if report["seed"] != seed:
            errors.append(f"report {report['name']} has seed {report['seed']}, expected {seed}")
    return errors


def check_digests(out, recorded: dict) -> list[str]:
    """Compare output files, and report lines by name, with recorded digests."""
    errors = []
    for name, digest in recorded.get("files", {}).items():
        if sha256_file(out / name) != digest:
            errors.append(f"{name}: SHA-256 differs from the recorded digest")
    lines = recorded.get("report_lines", {})
    if lines:
        found = report_line_digests(out / "reports.jsonl")
        for name, digest in lines.items():
            if name not in found:
                errors.append(f"reports.jsonl: recorded report {name} is missing")
            elif found[name] != digest:
                errors.append(f"reports.jsonl line {name}: SHA-256 differs from the recorded digest")
    return errors
