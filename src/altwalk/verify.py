"""Cross-validation harness tying the lattice, spectral, and limit layers together.

Every check compares two independently computed quantities and reports the
measured error against its default tolerance, one report per bound; a report's
``passed`` is ``metric <= tolerance``, and ``run_suite`` applies the tolerance
overrides.  All sampling is seeded; identical seeds reproduce reports byte-for-byte.

One table, ``_CHECKS``, lists the checks in suite order.  For each it holds the
report names with their default tolerances and how to build the check for a
model and start state.  ``CHECK_NAMES``, the tolerance-name validation and the
tolerance defaults all read it, and ``run_suite`` runs any subset of it through
one path: the checks that read the walk share one trajectory, which one task
evolves on a second thread beside the work that reads no walk; the others call
their public ``check_*`` function.  The reports are the same, byte for byte, as
when the two run one after the other.  ``altwalk chars`` runs the
``char_function`` check's reader alone, through ``char_triples``.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import lattice, limit, spectral
from .model import Model


class _Check(NamedTuple):
    """One check of the suite: the default tolerance of each report it emits, in
    report order, and ``build(model, state0)``, which makes the check's runner."""

    tolerances: dict
    build: Callable


STANDARD_XI = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))  # also `chars` without --xi

# Every check, in suite order; the runners are under "check runners" below.
_CHECKS = {
    "unitarity": _Check({"unitarity": 1e-10}, lambda m, s0: _Unitarity(500)),
    "lattice_vs_spectral": _Check(
        {"lattice_vs_spectral": 1e-8}, lambda m, s0: _LatticeVsSpectral(m, s0, 20)),
    "roundtrip": _Check(
        {"roundtrip": 1e-9}, lambda m, s0: _Direct(check_roundtrip, m)),
    "jacobian": _Check(
        {"jacobian_fd": 1e-6, "jacobian_branch": 1e-8},
        lambda m, s0: _Direct(check_jacobian, m)),
    "support": _Check(
        {"support_containment": 1e-12, "support_tightness": 1e-3,
         "support_ellipse_membership": 0.0},  # the last for degenerate coins only
        lambda m, s0: _Direct(check_support, m)),
    "char_function": _Check(
        {"char_triangle": 5e-2, "char_quadratures": 1e-2},
        lambda m, s0: _CharFunction(m, s0, 300, STANDARD_XI)),
    "weak_limit": _Check(
        {"weak_limit": 0.1, "weak_limit_trend": 0.0, "weak_limit_escape": 0.02},
        lambda m, s0: _WeakLimit(m, s0, (100, 300, 500), 50, 16)),
    "weight_table": _Check(
        {"weight_table": 1.0},  # informational: the mismatch count goes in details
        lambda m, s0: _Direct(check_weight_table, m)),
}

# check name -> report names it can emit; report name -> default tolerance
CHECK_NAMES = {name: tuple(check.tolerances) for name, check in _CHECKS.items()}
_TOLERANCES = {rep: tol for check in _CHECKS.values() for rep, tol in check.tolerances.items()}

# sites or density cells per block of the per-point work on a walk's position distribution
# and on the analytic bins; a bin strip (one bin row, 12,800 cells, at the suite's sizes)
# stays within one limit._DENSITY_BLOCK, so the calling thread alone enumerates it
_SITE_BLOCK = 1 << 14
# draws per sample after which a sampled check stops short and fails; the coins tried drew
# at most 1.3, but on (0.999999, 0.000001) |J| <= 4e-6, so check_jacobian accepts none
_DRAWS_PER_SAMPLE = 100


@dataclass
class ComparisonReport:
    """One measured error against one fixed tolerance."""

    name: str
    metric: float
    tolerance: float
    seed: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.metric <= self.tolerance

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "metric": float(self.metric),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "seed": self.seed,
            "details": self.details,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _report(name, metric, seed, details) -> ComparisonReport:
    return ComparisonReport(name, float(metric), _TOLERANCES[name], seed, dict(details))


# ---------------------------------------------------------------------------
# individual checks


def _draw(model: Model, samples: int, rng, accept, details: dict, prefix: str = ""):
    """(k1, k2, v1, v2, value) of ``samples`` uniform wavenumbers that pass
    ``accept``; ``details[prefix + "excluded"]`` counts the draws excluded.

    ``accept(k1, k2, v1, v2)`` gets a round's draws inside the open support with
    their band-1 group velocities, and returns a mask over them of the ones it
    accepts and one value for each.  Each round draws as many pairs as are missing,
    so the stream stops at the last acceptance, as drawing one pair at a time would.
    After ``_DRAWS_PER_SAMPLE`` draws per sample it stops short, with the count
    it accepted in ``details[prefix + "accepted"]`` and NaN for each sample it
    lacks, so a worst error taken over them is NaN and fails at any tolerance.
    """
    kept = [(np.empty(0),) * 5]
    excluded = 0
    done = 0
    budget = _DRAWS_PER_SAMPLE * samples
    while done < samples and done + excluded < budget:
        remaining = min(samples - done, budget - done - excluded)
        k1, k2 = rng.uniform(-math.pi, math.pi, size=(remaining, 2)).T
        v1, v2 = spectral.group_velocity(model, k1, k2)
        inside = limit._inside_mask(model, *limit.rotated_coords(v1, v2))
        k1, k2, v1, v2 = k1[inside], k2[inside], v1[inside], v2[inside]
        at, value = accept(k1, k2, v1, v2)
        kept.append((k1[at], k2[at], v1[at], v2[at], value))
        excluded += remaining - value.size
        done += value.size
    details[prefix + "excluded"] = excluded
    if done < samples:
        details[prefix + "accepted"] = done
        kept.append((np.full(samples - done, np.nan),) * 5)
    return [np.concatenate(col) for col in zip(*kept)]


def _recovered(model: Model, k1, k2, v1, v2):
    """Torus distance from each k to the nearest band-1 preimage of its v that the
    density's enumeration finds, inf where it finds none."""
    dist = np.full(k1.shape, np.inf)
    for p, _, _, idx, r1, r2, ok, _ in limit._preimage_slots(model, v1, v2):
        if p == 2:  # the slots come lazily, band 1 first
            break
        near = limit._torus_dist(k1[idx], k2[idx], r1, r2)
        dist[idx] = np.minimum(dist[idx], np.where(ok, near, np.inf))
    return dist


def _roundtrip_worst(model: Model, samples: int, rng, details: dict, prefix: str) -> float:
    """Worst round-trip error over ``samples`` successes, drawn by ``_draw``."""
    def accept(k1, k2, v1, v2):
        dist = _recovered(model, k1, k2, v1, v2)
        found = np.isfinite(dist)
        return found, dist[found]

    *_, errors = _draw(model, samples, rng, accept, details, prefix)
    return float(errors.max(initial=0.0))


def check_roundtrip(model: Model, samples: int = 10_000, *,
                    seed: int = 0) -> list[ComparisonReport]:
    """k -> v -> the enumeration's nearest preimage of v: its torus distance to k,
    worst over random k whose v is inside; draws with no preimage are excluded.

    When the supplied model has no coin phases, a fixed phased sibling is run
    through the same loop so the phase-shift bookkeeping is exercised too.
    """
    rng = np.random.default_rng(seed)
    details = {"samples": samples}
    worst = details["base_error"] = _roundtrip_worst(model, samples, rng, details, "")
    if not any((model.alpha1, model.beta1, model.delta1,
                model.alpha2, model.beta2, model.delta2)):
        phased = replace(model, alpha1=0.3, beta1=-0.4, delta1=0.7,
                         alpha2=-0.2, beta2=0.5, delta2=-0.1)
        details["phased_error"] = _roundtrip_worst(phased, samples, rng, details, "phased_")
        worst = float(np.maximum(worst, details["phased_error"]))  # NaN if either is
    return [_report("roundtrip", worst, seed, details)]


def check_jacobian(model: Model, samples: int = 1000, *,
                   seed: int = 0) -> list[ComparisonReport]:
    """Forward Jacobian against finite differences and the branch-matched inverse.

    The sign of J(k) picks the inverse: the plus family (even m) where J < 0,
    the minus family where J > 0.  Points with |J| <= 1e-4 sit near the fold
    curves where the derivative degenerates; they are excluded and counted, as
    are points off the open support.
    """
    def accept(k1, k2, v1, v2):
        j = limit._signed_jacobian(model, k1, k2)
        keep = np.abs(j) > 1e-4
        return keep, j[keep]

    h = 1e-5
    details = {"samples": samples, "h": h}
    k1, k2, v1, v2, j = _draw(model, samples, np.random.default_rng(seed), accept, details)
    jf = np.abs(j)
    gv = spectral.group_velocity
    col1 = [(p - m) / (2.0 * h) for p, m in zip(gv(model, k1 + h, k2), gv(model, k1 - h, k2))]
    col2 = [(p - m) / (2.0 * h) for p, m in zip(gv(model, k1, k2 + h), gv(model, k1, k2 - h))]
    det = col1[0] * col2[1] - col1[1] * col2[0]  # signed, so a wrong sign of J shows
    plus, minus = limit._jacobian_factors(model, v1, v2)
    jinv = np.where(j < 0.0, plus, minus)
    fd_worst = float(np.max(np.abs(det - j) / jf, initial=0.0))
    br_worst = float(np.max(np.abs(jinv - 1.0 / jf) * jf, initial=0.0))
    return [
        _report("jacobian_fd", fd_worst, seed, details),
        _report("jacobian_branch", br_worst, seed, details),
    ]


def check_support(model: Model, grid_n: int = 512, *, seed: int = 0) -> list[ComparisonReport]:
    """Forward image containment in the two-ellipse region, plus tightness."""
    if grid_n < 128:
        raise ValueError(f"need grid_n >= 128, got {grid_n}")
    col, row = spectral._wavenumber_grid(grid_n)
    rows = max(1, spectral._GRID_BLOCK // grid_n)
    d = model.derived
    extremes, singular = [], 0
    for lo in range(0, grid_n, rows):
        with np.errstate(divide="ignore", invalid="ignore"):
            v1, v2 = spectral.group_velocity(model, col[lo:lo + rows], row)
            u1, u2 = limit.rotated_coords(v1, v2)
        q_r, q_t = limit._ellipse_forms(model, u1, u2)
        # band crossings (degenerate models only) have no group velocity; skip them
        finite = np.isfinite(q_r) & np.isfinite(q_t)
        singular += int((~finite).sum())
        if finite.any():
            q_r, q_t = q_r[finite], q_t[finite]
            extremes.append((np.maximum(q_r, q_t).max(), (1.0 - q_r).min(), (1.0 - q_t).min()))
    tops, ers, ets = zip(*extremes)  # in any block order; no finite point at all raises here
    violation = float(max(0.0, max(tops) - 1.0))
    min_er, min_et = float(min(ers)), float(min(ets))
    details = {"grid_n": grid_n, "min_E_R": min_er, "min_E_T": min_et, "singular_points": singular}
    reports = [
        _report("support_containment", violation, seed, details),
        _report("support_tightness", max(min_er, min_et), seed, details),
    ]
    if d.degenerate:
        vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
        w1, w2 = vv[:, None], vv[None, :]
        member = limit.reference_ellipse_grover(d.a, w1, w2)
        inside = limit._inside_mask(model, *limit.rotated_coords(w1, w2))
        mism = int(np.count_nonzero(inside != member))
        reports.append(_report(
            "support_ellipse_membership", mism / inside.size, seed,
            {"grid_n": 200, "mismatches": mism}))
    return reports


def char_triples(model: Model, state0, t: int, xi_list, **sizes):
    """(xi, empirical, spectral, density, largest gap) per xi, and the density
    mass, from the ``char_function`` reader; ``sizes`` may set its grid_n and quad."""
    reader = _CharFunction(model, state0, t, xi_list, **sizes)
    reader.prepare(None)  # first: it refuses a grid of band crossings without the walk
    _observe_walk(model, state0, [reader])
    return reader.rows(), reader.mass


def _analytic_bin_masses(model: Model, spectrum, bins: int, refine: int) -> tuple[np.ndarray, dict]:
    """Per-bin mass of f(v) dv / (2 pi)^2 on a bins x bins grid over [-1,1]^2.

    Midpoint rule with `refine` cells per bin axis.  Cells the evaluator
    refuses (boundary shell) are credited the mean mass of their evaluable
    neighbours, which keeps the excised mass in the adjacent bins.
    """
    n = bins * refine
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    rows = refine * max(1, _SITE_BLOCK // n // refine)  # whole bin rows per strip
    masses, info = [], {"refine": refine, "refused_cells": 0}

    def filled():  # each strip's cell masses, once the first row below it is known
        above, held = (np.zeros((0, n)),) * 2, None
        for lo in range(0, n + rows, rows):  # the strip below the last one is empty
            grid = limit.density_grid(model, spectrum, mid[lo:lo + rows, None], mid[None, :])
            below = (grid.f * (2.0 / n) ** 2 / (2.0 * math.pi) ** 2,  # 0 where not evaluable
                     grid.evaluable, grid.inside & ~grid.evaluable)
            if held:
                (cell, evaluable, refused), top = held, len(above[0])
                pc, pe = (np.vstack([above[k], held[k], below[k][:1]]) for k in (0, 1))
                for i, j in zip(*np.nonzero(refused)):
                    neigh = [pc[a, b] for a, b in ((i + top + 1, j), (i + top - 1, j),
                                                   (i + top, j + 1), (i + top, j - 1))
                             if 0 <= a < len(pc) and 0 <= b < n and pe[a, b]]
                    if neigh:
                        cell[i, j] = float(np.mean(neigh))
                masses.append(cell.reshape(-1, refine, bins, refine).sum(axis=(1, 3)))
                info["refused_cells"] += int(refused.sum())
                yield cell.reshape(-1)
                above = (cell[-1:], evaluable[-1:])
            held = below

    info["analytic_total"] = float(lattice._pairwise_sum(n * n, np.float64, filled()))
    return np.concatenate(masses), info


def check_weight_table(model: Model, samples: int = 200, *,
                       seed: int = 0) -> list[ComparisonReport]:
    """Soft cross-check of the published band/region case tables.

    The enumeration rule is authoritative; table disagreement is recorded,
    never fatal, so the tolerance is 1 (any mismatch fraction passes).  It
    reads 1.0: a band's preimages lie in the two squares of its u-quadrant,
    but octants 1 and 3 list {3,7} and {1,5}, and their points reach only the
    quadrants of squares 2 and 4; octants 2 and 4 list {4,8} and {2,6}, and
    theirs reach only those of 1 and 3.
    """
    rng = np.random.default_rng(seed)
    # per sample one theta draw, then one frac draw, as a loop over samples draws them;
    # frac <= 0.95 keeps every sample strictly inside: its ellipse form is frac^2
    theta, frac = rng.uniform((0.0, 0.05), (2.0 * math.pi, 0.95), size=(samples, 2)).T
    rho = frac * limit.support_radius(model, theta)
    v1, v2 = limit.rotated_coords(rho * np.cos(theta), rho * np.sin(theta))
    mismatches = int(np.count_nonzero(~limit._table_matches(model, v1, v2)))
    return [_report("weight_table", mismatches / samples, seed,
                    {"samples": samples, "mismatches": mismatches})]


# ---------------------------------------------------------------------------
# check runners
#
# ``_CHECKS`` builds one runner per selected check.  A runner's ``times`` are
# the step counts it reads off the walk, empty for a check that reads none;
# ``observe(t, x)`` keeps what it needs of the snapshot t steps after the start:
# its position distribution if the runner's class is ``squared``, else its state.
# ``_observe_walk`` feeds every runner from one trajectory, so the suite evolves the
# walk once and squares a snapshot at most once; no runner writes into what it gets,
# and only lattice_vs_spectral keeps a whole state (t=20).
# ``prepare(seed)`` does the check's work that reads no walk, and
# ``reports(seed)`` builds its reports once both are done.
# ``run_suite`` observes the walk as one task on a second thread while the caller's
# thread prepares every runner; the two write disjoint attributes of a runner.


def _observe_walk(model: Model, state0, runners, stop=None) -> None:
    """Evolve once to every time the ``runners`` read and hand each its snapshots;
    return after a snapshot once the ``threading.Event`` ``stop`` is set."""
    times = sorted({t for runner in runners for t in runner.times})
    for t, state in zip(times, lattice.trajectory(model, state0, times)):
        readers = [runner for runner in runners if t in runner.times]
        dist = (lattice.position_distribution(state)
                if any(runner.squared for runner in readers) else None)
        for runner in readers:
            runner.observe(t, dist if runner.squared else state)
        del dist  # freed before the walk steps on
        if stop is not None and stop.is_set():
            return


class _Runner:
    """A runner's defaults: it reads no walk and prepares nothing."""

    times = ()
    squared = False

    def prepare(self, seed):
        pass


class _Direct(_Runner):
    """A check that reads no walk: one call of its ``check_*`` function, beside the walk."""

    def __init__(self, check, model: Model):
        self.check, self.model = check, model

    def prepare(self, seed):
        self.done = self.check(self.model, seed=seed)

    def reports(self, seed):
        return self.done


class _Unitarity(_Runner):
    """Probability conservation: the norm of the walk after t steps."""

    def __init__(self, t: int):
        self.times = (t,)

    def observe(self, t, state):
        self.norm_sq = state.norm_sq()

    def reports(self, seed):
        return [_report("unitarity", abs(self.norm_sq - 1.0), seed,
                        {"t": self.times[0], "norm_sq": self.norm_sq})]


class _LatticeVsSpectral(_Runner):
    """Direct evolution against the inverse-Fourier reconstruction after t steps,
    which ``prepare`` forms beside the walk."""

    def __init__(self, model: Model, state0, t: int):
        self.model, self.state0, self.times = model, state0, (t,)

    def observe(self, t, state):
        self.direct = state

    def prepare(self, seed):
        self.recon = spectral.spectral_reconstruct(self.model, self.state0, self.times[0])

    def reports(self, seed):
        # both windows are the start window grown by t on every side
        metric = float(np.abs(self.direct.amps - self.recon.amps).max())
        return [_report("lattice_vs_spectral", metric, seed, {"t": self.times[0]})]


class _CharFunction(_Runner):
    """Characteristic function of X_t/t three ways, per xi.

    Empirical: sum_x p(x) e^{i xi.x/t} over the walk after t steps.  Spectral:
    quadrature on a grid_n x grid_n wavenumber grid.  Density: quadrature of f
    on quad = (n_theta, n_rad) polar nodes, over its own mass so the shared
    discretisation factor cancels (and xi = 0 gives exactly 1).  ``prepare``
    forms the last two, reading no walk, from one evaluation of f and one grid.
    """

    squared = True

    def __init__(self, model: Model, state0, t: int, xi_list, grid_n: int = 256,
                 quad: tuple[int, int] = (96, 96)):
        self.model, self.state0, self.grid_n, self.quad = model, state0, grid_n, quad
        self.xis = [(float(xi[0]), float(xi[1])) for xi in xi_list]
        self.times = (t,)

    def observe(self, t, dist):
        xi1, xi2 = np.reshape(self.xis, (-1, 2)).T[:, :, None, None]  # one xi per outer row
        x2 = (dist.x2_min + np.arange(dist.shape[1])) / t

        def pieces():  # p(x) e^{i xi.x/t}, a block of rows at a time
            for first, rows in dist.blocks(spectral._GRID_BLOCK):
                x1 = (first + np.arange(len(rows)))[:, None] / t
                yield (rows * np.exp(1j * (xi1 * x1 + xi2 * x2))).reshape(len(xi1), rows.size)

        sums = lattice._pairwise_sum(math.prod(dist.shape), np.complex128, pieces())
        self.emps = [complex(total) for total in sums]

    def prepare(self, seed):
        spectrum = spectral.fourier_initial(self.state0)
        weights = [lambda a, b, xi=xi: np.exp(1j * (xi[0] * a + xi[1] * b)) for xi in self.xis]
        mass, *weighted = limit.integrate_density(self.model, spectrum, [None, *weights],
                                                  *self.quad)
        self.spes, _ = spectral.numeric_char_function(self.model, spectrum, self.xis, self.grid_n)
        self.dens = [complex(1.0) if xi == (0.0, 0.0) else complex(res.total / mass.total)
                     for xi, res in zip(self.xis, weighted)]
        self.mass = float(mass.total)

    def rows(self):
        """(xi, empirical, spectral, density, largest gap of the three or NaN) per xi."""
        return [(xi, emp, spe, den, float(np.max([abs(emp - spe), abs(emp - den), abs(spe - den)])))
                for xi, emp, spe, den in zip(self.xis, self.emps, self.spes, self.dens)]

    def reports(self, seed):
        rows = self.rows()
        per_xi = {f"{xi[0]:g},{xi[1]:g}": {"empirical": emp, "spectral": spe, "density": den}
                  for xi, emp, spe, den, _ in rows}
        tri = float(np.max([gap for *_, gap in rows], initial=0.0))
        quad_gap = float(np.max([abs(spe - den) for _, _, spe, den, _ in rows], initial=0.0))
        details = {"t": self.times[0], "density_mass": self.mass, "values": per_xi}
        return [
            _report("char_triangle", tri, seed, details),
            _report("char_quadratures", quad_gap, seed, details),
        ]


class _WeakLimit(_Runner):
    """L1 distance between the rescaled walk and the analytic density, per time.

    Keeps the walk's bin masses at each time (edge points go to the lower bin)
    and, from the same pass over the sites, its escape mass at the last time;
    ``prepare`` forms the analytic bin masses."""

    squared = True

    def __init__(self, model: Model, state0, times, bins: int, refine: int):
        self.model, self.state0 = model, state0
        self.times = tuple(sorted(int(t) for t in times))
        self.bins, self.refine = bins, refine
        self.emp = {}

    def observe(self, t, dist):
        h = 2.0 / self.bins
        hist = np.zeros((self.bins, self.bins))
        last = t == self.times[-1]
        escaped = []
        for x1, block in dist.blocks(_SITE_BLOCK):  # the nonzero sites, in row-major order
            idx1, idx2 = np.nonzero(block)
            v1, v2, probs = (x1 + idx1) / t, (dist.x2_min + idx2) / t, block[idx1, idx2]
            b1 = np.clip(np.ceil((v1 + 1.0) / h).astype(int) - 1, 0, self.bins - 1)
            b2 = np.clip(np.ceil((v2 + 1.0) / h).astype(int) - 1, 0, self.bins - 1)
            np.add.at(hist, (b1, b2), probs)
            if last:
                u1, u2 = limit.rotated_coords(v1, v2)
                radius = limit.support_radius(self.model, np.arctan2(u2, u1))
                escaped.append(probs[np.hypot(u1, u2) > radius + 0.05])
        self.emp[t] = hist
        if last:  # the mass beyond a 0.05 radial margin, summed once in row-major order
            self.escape = float(np.concatenate(escaped).sum())

    def prepare(self, seed):
        spectrum = spectral.fourier_initial(self.state0)
        self.analytic, self.info = _analytic_bin_masses(
            self.model, spectrum, self.bins, self.refine)

    def reports(self, seed):
        seq = [float(np.abs(self.emp[t] - self.analytic).sum()) for t in self.times]
        trend = max(l2 - l1 for l1, l2 in zip(seq[:-1], seq[1:])) if len(seq) > 1 else 0.0
        details = {"times": list(self.times), "bins": self.bins,
                   "l1": {str(t): l1 for t, l1 in zip(self.times, seq)}, **self.info}
        return [
            _report("weak_limit", seq[-1], seed, details),
            _report("weak_limit_trend", trend, seed, details),
            _report("weak_limit_escape", self.escape, seed,
                    {"t": self.times[-1], "margin": 0.05}),
        ]


def run_suite(model: Model, spinor=None, *, seed: int = 0, only=None,
              tolerances=None) -> list[ComparisonReport]:
    """Run the verification checks and return their reports in a fixed order.

    spinor: the walk's start at the origin, (1, 0) when None.
    only: iterable of check names (keys of CHECK_NAMES) restricting the run to
    those checks, in the order each name first appears.
    tolerances: mapping report-name -> tolerance that replaces the report's default.
    The walk is evolved once, to the times the selected checks read, as one
    task on a second thread while this one does the checks' work that reads no
    walk; an exception on either thread is raised here once the walk task has
    ended, and one on this thread stops the walk at its next snapshot.
    """
    names = list(CHECK_NAMES if only is None else dict.fromkeys(only))
    for name in names:
        if name not in CHECK_NAMES:
            raise KeyError(f"unknown check {name!r}; valid: {sorted(CHECK_NAMES)}")
    tolerances = tolerances or {}
    for key in tolerances:
        if key not in _TOLERANCES:
            raise KeyError(f"unknown report {key!r}; valid: {sorted(_TOLERANCES)}")
    # imported here: concurrent.futures loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    state0 = lattice.initial_state_delta((1.0, 0.0) if spinor is None else spinor)
    runners = [_CHECKS[name].build(model, state0) for name in names]
    stop = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        walk = pool.submit(_observe_walk, model, state0, runners, stop)
        try:
            for runner in runners:
                runner.prepare(seed)
        except BaseException:
            stop.set()  # no report will read the rest of the walk
            raise
        walk.result()  # raises the walk's exception, if any
    reports = [rep for runner in runners for rep in runner.reports(seed)]
    for rep in reports:
        rep.tolerance = float(tolerances.get(rep.name, rep.tolerance))
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
