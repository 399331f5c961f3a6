"""Cross-validation harness tying the lattice, spectral, and limit layers together.

Every check compares two independently computed quantities and reports the
measured error against a fixed tolerance.  Checks that bound several distinct
quantities emit one report per bound so that ``passed == (metric <= tolerance)``
holds for each record.  All sampling is seeded; identical seeds reproduce
reports byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice, limit, spectral
from .model import CoinParameters, Model, build_model

_DEFAULT_TOLERANCES = {
    "unitarity": 1e-10,
    "lattice_vs_spectral": 1e-8,
    "roundtrip": 1e-9,
    "jacobian_fd": 1e-6,
    "jacobian_branch": 1e-8,
    "support_containment": 1e-12,
    "support_tightness": 1e-3,
    "support_ellipse_membership": 0.0,
    "char_triangle": 5e-2,
    "char_quadratures": 1e-2,
    "weak_limit": 0.1,
    "weak_limit_trend": 0.0,
    "weak_limit_escape": 0.02,
    "weight_table": 1.0,  # informational; mismatches logged, never fatal
}

# check name -> report names it can emit (used for tolerance-override validation)
CHECK_NAMES = {
    "unitarity": ("unitarity",),
    "lattice_vs_spectral": ("lattice_vs_spectral",),
    "roundtrip": ("roundtrip",),
    "jacobian": ("jacobian_fd", "jacobian_branch"),
    "support": ("support_containment", "support_tightness", "support_ellipse_membership"),
    "char_function": ("char_triangle", "char_quadratures"),
    "weak_limit": ("weak_limit", "weak_limit_trend", "weak_limit_escape"),
    "weight_table": ("weight_table",),
}


@dataclass
class ComparisonReport:
    """One measured error against one fixed tolerance."""

    name: str
    metric: float
    tolerance: float
    passed: bool
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "metric": float(self.metric),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "seed": self.seed,
            "details": _jsonable(self.details),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _report(name, metric, seed, details, tolerances=None) -> ComparisonReport:
    tol = _DEFAULT_TOLERANCES[name]
    if tolerances and name in tolerances:
        tol = float(tolerances[name])
    metric = float(metric)
    return ComparisonReport(name, metric, tol, metric <= tol, seed, dict(details))


def _default_state(spinor=None) -> lattice.LatticeState:
    if spinor is None:
        spinor = np.array([1.0, 0.0], dtype=complex)
    return lattice.initial_state_delta(np.asarray(spinor, dtype=complex))


# ---------------------------------------------------------------------------
# individual checks


def check_unitarity(model: Model, t: int = 500, state0=None, *, seed: int = 0,
                    tolerances=None) -> list[ComparisonReport]:
    """Probability conservation after t exact steps."""
    state0 = _default_state() if state0 is None else state0
    return _walk_reports(model, state0, _Unitarity(t), seed, tolerances)


def _aligned_max_diff(a: lattice.LatticeState, b: lattice.LatticeState) -> float:
    x1_min = min(a.x1_min, b.x1_min)
    x2_min = min(a.x2_min, b.x2_min)
    n1 = max(a.x1_max, b.x1_max) - x1_min + 1
    n2 = max(a.x2_max, b.x2_max) - x2_min + 1
    diff = np.zeros((2, n1, n2), dtype=complex)
    for st, sign in ((a, 1.0), (b, -1.0)):
        i = st.x1_min - x1_min
        j = st.x2_min - x2_min
        diff[:, i:i + st.amps.shape[1], j:j + st.amps.shape[2]] += sign * st.amps
    return float(np.abs(diff).max())


def check_lattice_vs_spectral(model: Model, state0=None, t: int = 20, *,
                              seed: int = 0, tolerances=None) -> list[ComparisonReport]:
    """Direct evolution against the inverse-Fourier reconstruction."""
    if t > 64:
        raise ValueError(f"grid cost bounds t <= 64, got {t}")
    if state0 is None:
        state0 = _default_state()
    direct = lattice.evolve(model, state0, t)
    recon = spectral.spectral_reconstruct(model, state0, t)
    metric = _aligned_max_diff(direct, recon)
    return [_report("lattice_vs_spectral", metric, seed, {"t": t}, tolerances)]


def _phased_sibling(model: Model) -> Model:
    p = model.params
    return build_model(CoinParameters(
        modulus_a1=p.modulus_a1, alpha1=0.3, beta1=-0.4, delta1=0.7,
        modulus_a2=p.modulus_a2, alpha2=-0.2, beta2=0.5, delta2=-0.1))


def _roundtrip_worst(model: Model, samples: int, rng) -> tuple[float, int]:
    """Worst round-trip error over ``samples`` successes, and the draws excluded.

    Each round draws as many pairs as successes are missing, so the stream
    stops at the last success, as it would drawing one pair at a time."""
    worst = 0.0
    excluded = 0
    done = 0
    while done < samples:
        remaining = samples - done
        k1, k2 = rng.uniform(-math.pi, math.pi, size=(remaining, 2)).T
        v1, v2 = limit.forward_map(model, k1, k2)
        r1, r2, ok = limit._inverse_labelled(model, v1, v2, *limit._branch_labels(model, k1, k2))
        found = int(np.count_nonzero(ok))
        worst = max(worst, float(limit._torus_dist(k1[ok], k2[ok], r1[ok], r2[ok]).max(initial=0.0)))
        excluded += remaining - found
        done += found
    return worst, excluded


def check_roundtrip(model: Model, samples: int = 10_000, *, seed: int = 0,
                    tolerances=None) -> list[ComparisonReport]:
    """k -> v -> branch -> k angular round trip on random interior wavenumbers.

    When the supplied model has no coin phases, a fixed phased sibling is run
    through the same loop so the phase-shift bookkeeping is exercised too.
    """
    rng = np.random.default_rng(seed)
    worst, excluded = _roundtrip_worst(model, samples, rng)
    details = {"samples": samples, "excluded": excluded, "base_error": worst}
    p = model.params
    if (p.alpha1, p.beta1, p.delta1, p.alpha2, p.beta2, p.delta2) == (0.0,) * 6:
        phased = _phased_sibling(model)
        worst_p, excl_p = _roundtrip_worst(phased, samples, rng)
        details["phased_error"] = worst_p
        details["phased_excluded"] = excl_p
        worst = max(worst, worst_p)
    return [_report("roundtrip", worst, seed, details, tolerances)]


def check_jacobian(model: Model, samples: int = 1000, *, seed: int = 0,
                   tolerances=None) -> list[ComparisonReport]:
    """Forward Jacobian against finite differences and the branch-matched inverse.

    Points with |J| <= 1e-4 sit near the fold curves where the derivative
    degenerates; they are excluded and counted.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    fd_worst = 0.0
    excluded = 0
    accepted = []
    while len(accepted) < samples:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in limit.forward_map(model, k1, k2))
        if limit.support_contains(model, v1, v2) != "inside":
            excluded += 1
            continue
        jf = limit.jacobian_forward(model, k1, k2)
        if jf <= 1e-4:
            excluded += 1
            continue
        dp1 = np.array(limit.forward_map(model, k1 + h, k2))
        dm1 = np.array(limit.forward_map(model, k1 - h, k2))
        dp2 = np.array(limit.forward_map(model, k1, k2 + h))
        dm2 = np.array(limit.forward_map(model, k1, k2 - h))
        col1 = (dp1 - dm1) / (2.0 * h)
        col2 = (dp2 - dm2) / (2.0 * h)
        det = abs(col1[0] * col2[1] - col1[1] * col2[0])
        fd_worst = max(fd_worst, abs(det - jf) / jf)
        accepted.append((k1, k2, v1, v2, jf))
    k1, k2, v1, v2, jf = np.array(accepted, dtype=np.float64).reshape(-1, 5).T
    _, m, _ = limit._branch_labels(model, k1, k2)
    plus, minus = limit._jacobian_factors(model, v1, v2)
    jinv = np.where(m % 2 == 0, plus, minus)
    br_worst = float(np.max(np.abs(jinv - 1.0 / jf) * jf, initial=0.0))
    details = {"samples": samples, "excluded": excluded, "h": h}
    return [
        _report("jacobian_fd", fd_worst, seed, details, tolerances),
        _report("jacobian_branch", br_worst, seed, details, tolerances),
    ]


def check_support(model: Model, grid_n: int = 512, *, seed: int = 0,
                  tolerances=None) -> list[ComparisonReport]:
    """Forward image containment in the two-ellipse region, plus tightness."""
    if grid_n < 128:
        raise ValueError(f"need grid_n >= 128, got {grid_n}")
    g = -math.pi + 2.0 * math.pi * np.arange(grid_n) / grid_n
    k1, k2 = np.meshgrid(g, g, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        v1, v2 = limit.forward_map(model, k1, k2)
        u1, u2 = limit.rotated_coords(v1, v2)
    d = model.derived
    q_r, q_t = limit._ellipse_forms(model, u1, u2)
    # band crossings (degenerate models only) have no group velocity; skip them
    finite = np.isfinite(q_r) & np.isfinite(q_t)
    violation = float(max(0.0, np.maximum(q_r[finite], q_t[finite]).max() - 1.0))
    min_er = float((1.0 - q_r[finite]).min())
    min_et = float((1.0 - q_t[finite]).min())
    details = {"grid_n": grid_n, "min_E_R": min_er, "min_E_T": min_et,
               "singular_points": int((~finite).sum())}
    reports = [
        _report("support_containment", violation, seed, details, tolerances),
        _report("support_tightness", max(min_er, min_et), seed, details, tolerances),
    ]
    if d.degenerate:
        vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
        w1, w2 = np.meshgrid(vv, vv, indexing="ij")
        member = limit.reference_ellipse_grover(d.a, w1, w2)
        inside = limit._inside_mask(model, *limit.rotated_coords(w1, w2))
        mism = int(np.count_nonzero(inside != member))
        reports.append(_report(
            "support_ellipse_membership", mism / inside.size, seed,
            {"grid_n": 200, "mismatches": mism}, tolerances))
    return reports


def char_triples(model: Model, state0, t: int, xi_list, *, grid_n: int = 256,
                 quad: tuple[int, int] = (96, 96)):
    """(empirical, spectral, density) characteristic-function values per xi.

    Empirical: sum over the time-t position distribution of p(x) e^{i xi.x/t}.
    Spectral: wavenumber-space quadrature, no time dependence.
    Density: velocity-space quadrature of f, normalised by its own mass so the
    shared discretisation factor cancels (and xi = 0 gives exactly 1).
    """
    dist = lattice.position_distribution(lattice.evolve(model, state0, t))
    return _char_rows(model, state0, _empirical_chars(dist, t, xi_list), xi_list, grid_n, quad)


def _empirical_chars(dist: lattice.PositionDistribution, t: int, xi_list) -> list[complex]:
    """sum_x p(x) e^{i xi.x/t} over the time-t position distribution, per xi."""
    x1 = (dist.x1_min + np.arange(dist.probs.shape[0])) / t
    x2 = (dist.x2_min + np.arange(dist.probs.shape[1])) / t
    emps = []
    for xi in xi_list:
        xi1, xi2 = float(xi[0]), float(xi[1])
        phase = np.exp(1j * (xi1 * x1[:, None] + xi2 * x2[None, :]))
        emps.append(complex(np.sum(dist.probs * phase)))
    return emps


def _char_rows(model: Model, state0, emps, xi_list, grid_n: int = 256,
               quad: tuple[int, int] = (96, 96)):
    """``char_triples`` from the empirical values ``emps`` of ``_empirical_chars``.

    The density is evaluated once on the quadrature nodes; the mass and every
    xi weight are summed from those values.
    """
    spectrum = spectral.fourier_initial(state0)
    arcs = limit._quadrature_arcs(model, spectrum, *quad)
    mass = limit._integrate_on(arcs).total
    rows = []
    for xi, emp in zip(xi_list, emps):
        xi1, xi2 = float(xi[0]), float(xi[1])
        spe = complex(spectral.numeric_char_function(model, spectrum, (xi1, xi2), grid_n))
        if xi1 == 0.0 and xi2 == 0.0:
            den = complex(1.0)
        else:
            weight = lambda a, b: np.exp(1j * (xi1 * a + xi2 * b))
            den = complex(limit._integrate_on(arcs, weight).total / mass)
        rows.append(((xi1, xi2), emp, spe, den))
    return rows, float(mass)


def check_char_function(model: Model, state0=None, t: int = 300,
                        xi_list=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), *,
                        seed: int = 0, tolerances=None) -> list[ComparisonReport]:
    """Characteristic function of X_t/t three ways: lattice, wavenumber, density."""
    state0 = _default_state() if state0 is None else state0
    return _walk_reports(model, state0, _CharFunction(model, state0, t, xi_list),
                         seed, tolerances)


def _analytic_bin_masses(model: Model, spectrum, bins: int, refine: int) -> tuple[np.ndarray, dict]:
    """Per-bin mass of f(v) dv / (2 pi)^2 on a bins x bins grid over [-1,1]^2.

    Midpoint rule with `refine` cells per bin axis.  Cells the evaluator
    refuses (boundary shell) are credited the mean mass of their evaluable
    neighbours, which keeps the excised mass in the adjacent bins.
    """
    n = bins * refine
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    grid = limit.density_grid(model, spectrum, mid[:, None], mid[None, :])
    cell = np.where(grid.evaluable, grid.f, 0.0) * (2.0 / n) ** 2 / (2.0 * math.pi) ** 2
    refused = grid.inside & ~grid.evaluable
    n_refused = int(refused.sum())
    if n_refused:
        idx1, idx2 = np.nonzero(refused)
        for i, j in zip(idx1, idx2):
            neigh = []
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < n and 0 <= b < n and grid.evaluable[a, b]:
                    neigh.append(cell[a, b])
            if neigh:
                cell[i, j] = float(np.mean(neigh))
    masses = cell.reshape(bins, refine, bins, refine).sum(axis=(1, 3))
    info = {"refine": refine, "refused_cells": n_refused,
            "analytic_total": float(cell.sum())}
    return masses, info


def _empirical_bin_masses(dist: lattice.PositionDistribution, bins: int) -> np.ndarray:
    """Histogram of the rescaled walk X_t/t; edge points go to the lower bin."""
    t = dist.time
    h = 2.0 / bins
    out = np.zeros((bins, bins))
    idx1, idx2 = np.nonzero(dist.probs)
    v1 = (dist.x1_min + idx1) / t
    v2 = (dist.x2_min + idx2) / t
    b1 = np.clip(np.ceil((v1 + 1.0) / h).astype(int) - 1, 0, bins - 1)
    b2 = np.clip(np.ceil((v2 + 1.0) / h).astype(int) - 1, 0, bins - 1)
    np.add.at(out, (b1, b2), dist.probs[idx1, idx2])
    return out


def _escape_mass(model: Model, dist: lattice.PositionDistribution, t: int) -> float:
    """Mass of the rescaled walk X_t/t strictly beyond a 0.05 radial margin."""
    idx1, idx2 = np.nonzero(dist.probs)
    v1 = (dist.x1_min + idx1) / t
    v2 = (dist.x2_min + idx2) / t
    u1, u2 = limit.rotated_coords(v1, v2)
    rho = np.hypot(u1, u2)
    theta = np.arctan2(u2, u1)
    return float(dist.probs[idx1, idx2][rho > limit.support_radius(model, theta) + 0.05].sum())


def check_weak_limit(model: Model, state0=None, times=(100, 300, 500),
                     bins: int = 50, *, refine: int = 16, seed: int = 0,
                     tolerances=None) -> list[ComparisonReport]:
    """L1 distance between the rescaled walk and the analytic density, per time."""
    state0 = _default_state() if state0 is None else state0
    return _walk_reports(model, state0, _WeakLimit(model, state0, times, bins, refine),
                         seed, tolerances)


# ---------------------------------------------------------------------------
# checks that read the walk
#
# Each is an object whose ``times`` are the step counts it reads; ``observe(t,
# state)`` keeps what it needs of the state t steps after the start, and
# ``reports(seed, tolerances)`` builds its reports from that.  ``_observe_walk``
# feeds every selected check from one trajectory, so the suite evolves the walk
# once and keeps no snapshot beyond the current state; a check called on its
# own goes through the same path.


def _observe_walk(model: Model, state0, uses) -> None:
    """Evolve once to every time the ``uses`` read and hand each its snapshots."""
    times = sorted({t for use in uses for t in use.times})
    for t, state in zip(times, lattice.trajectory(model, state0, times)):
        for use in uses:
            if t in use.times:
                use.observe(t, state)


def _walk_reports(model: Model, state0, use, seed, tolerances) -> list[ComparisonReport]:
    _observe_walk(model, state0, [use])
    return use.reports(seed, tolerances)


class _Unitarity:
    """The norm of the walk after t steps."""

    def __init__(self, t: int):
        if t < 1:
            raise ValueError(f"need t >= 1, got {t}")
        self.times = (t,)

    def observe(self, t, state):
        self.norm_sq = state.norm_sq()

    def reports(self, seed, tolerances):
        return [_report("unitarity", abs(self.norm_sq - 1.0), seed,
                        {"t": self.times[0], "norm_sq": self.norm_sq}, tolerances)]


class _CharFunction:
    """The empirical characteristic function after t steps; the spectral and density
    values are formed at report time."""

    def __init__(self, model: Model, state0, t: int, xi_list):
        for xi in xi_list:
            if max(abs(float(xi[0])), abs(float(xi[1]))) > 3.0:
                raise ValueError(f"|xi| <= 3 per entry, got {xi}")
        self.model, self.state0, self.xi_list = model, state0, xi_list
        self.times = (t,)

    def observe(self, t, state):
        self.emps = _empirical_chars(lattice.position_distribution(state), t, self.xi_list)

    def reports(self, seed, tolerances):
        t = self.times[0]
        rows, mass = _char_rows(self.model, self.state0, self.emps, self.xi_list)
        tri = 0.0
        quad_gap = 0.0
        per_xi = {}
        for (xi, emp, spe, den) in rows:
            gaps = (abs(emp - spe), abs(emp - den), abs(spe - den))
            tri = max(tri, *gaps)
            quad_gap = max(quad_gap, abs(spe - den))
            per_xi[f"{xi[0]:g},{xi[1]:g}"] = {
                "empirical": emp, "spectral": spe, "density": den}
        details = {"t": t, "density_mass": mass, "values": per_xi}
        return [
            _report("char_triangle", tri, seed, details, tolerances),
            _report("char_quadratures", quad_gap, seed, details, tolerances),
        ]


class _WeakLimit:
    """Bin masses of the rescaled walk at each time, and its escape mass at the last."""

    def __init__(self, model: Model, state0, times, bins: int, refine: int):
        times = tuple(sorted(int(t) for t in times))
        if times[0] < 50:
            raise ValueError(f"need t >= 50, got {times[0]}")
        self.model, self.state0, self.times = model, state0, times
        self.bins, self.refine = bins, refine
        self.emp = {}

    def observe(self, t, state):
        dist = lattice.position_distribution(state)
        self.emp[t] = _empirical_bin_masses(dist, self.bins)
        if t == self.times[-1]:
            self.escape = _escape_mass(self.model, dist, t)

    def reports(self, seed, tolerances):
        spectrum = spectral.fourier_initial(self.state0)
        analytic, info = _analytic_bin_masses(self.model, spectrum, self.bins, self.refine)
        seq = [float(np.abs(self.emp[t] - analytic).sum()) for t in self.times]
        trend = max(l2 - l1 for l1, l2 in zip(seq[:-1], seq[1:])) if len(seq) > 1 else 0.0
        details = {"times": list(self.times), "bins": self.bins,
                   "l1": {str(t): l1 for t, l1 in zip(self.times, seq)}, **info}
        return [
            _report("weak_limit", seq[-1], seed, details, tolerances),
            _report("weak_limit_trend", trend, seed, details, tolerances),
            _report("weak_limit_escape", self.escape, seed,
                    {"t": self.times[-1], "margin": 0.05}, tolerances),
        ]


def check_weight_table(model: Model, samples: int = 200, *, seed: int = 0,
                       tolerances=None) -> list[ComparisonReport]:
    """Soft cross-check of the published band/region case tables.

    The enumeration rule is authoritative; table disagreement is recorded,
    never fatal, so the tolerance is 1 (any mismatch fraction passes).
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    # frac <= 0.95 keeps every sample strictly inside: its ellipse form is frac^2
    for _ in range(samples):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        frac = rng.uniform(0.05, 0.95)
        rho = frac * limit.support_radius(model, theta)
        u1 = rho * math.cos(theta)
        u2 = rho * math.sin(theta)
        v1 = (u1 + u2) / math.sqrt(2.0)
        v2 = (u1 - u2) / math.sqrt(2.0)
        rep = limit.weight_table_report(model, v1, v2)
        if not rep["matches"]:
            mismatches += 1
    return [_report("weight_table", mismatches / samples, seed,
                    {"samples": samples, "mismatches": mismatches}, tolerances)]


# ---------------------------------------------------------------------------
# suite plumbing

# checks that do not read the walk
_CHECK_FUNCS = {
    "lattice_vs_spectral": lambda m, s0, seed, tol: check_lattice_vs_spectral(m, s0, 20, seed=seed, tolerances=tol),
    "roundtrip": lambda m, s0, seed, tol: check_roundtrip(m, 10_000, seed=seed, tolerances=tol),
    "jacobian": lambda m, s0, seed, tol: check_jacobian(m, 1000, seed=seed, tolerances=tol),
    "support": lambda m, s0, seed, tol: check_support(m, 512, seed=seed, tolerances=tol),
    "weight_table": lambda m, s0, seed, tol: check_weight_table(m, 200, seed=seed, tolerances=tol),
}

# checks that read the walk, fed by the suite's one trajectory
_WALK_USES = {
    "unitarity": lambda m, s0: _Unitarity(500),
    "char_function": lambda m, s0: _CharFunction(
        m, s0, 300, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))),
    "weak_limit": lambda m, s0: _WeakLimit(m, s0, (100, 300, 500), 50, 16),
}


def run_suite(model: Model, spinor=None, *, seed: int = 0, only=None,
              tolerances=None) -> list[ComparisonReport]:
    """Run the verification checks and return their reports in a fixed order.

    only: iterable of check names (keys of CHECK_NAMES) restricting the run.
    tolerances: mapping report-name -> overriding tolerance.
    The walk is evolved once, to the times the selected checks read.
    """
    if only is None:
        names = list(CHECK_NAMES)
    else:
        names = list(only)
        for name in names:
            if name not in CHECK_NAMES:
                raise KeyError(f"unknown check {name!r}; valid: {sorted(CHECK_NAMES)}")
    if tolerances:
        valid = {rep for reps in CHECK_NAMES.values() for rep in reps}
        for key in tolerances:
            if key not in valid:
                raise KeyError(f"unknown report {key!r}; valid: {sorted(valid)}")
    state0 = _default_state(spinor)
    uses = [_WALK_USES[name](model, state0) if name in _WALK_USES else None for name in names]
    _observe_walk(model, state0, [use for use in uses if use is not None])
    reports: list[ComparisonReport] = []
    for name, use in zip(names, uses):
        if use is not None:
            reports.extend(use.reports(seed, tolerances))
        else:
            reports.extend(_CHECK_FUNCS[name](model, state0, seed, tolerances))
    return reports


def summary_table(reports: list[ComparisonReport]) -> str:
    width = max(len(r.name) for r in reports) if reports else 4
    lines = [f"{'check':<{width}}  {'metric':>12}  {'tolerance':>12}  status"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.metric:>12.5e}  {r.tolerance:>12.5e}  {status}")
    return "\n".join(lines)


def write_reports(reports: list[ComparisonReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
