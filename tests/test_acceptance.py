"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion NN] PASS/FAIL line summarising the
measured quantities against their pinned tolerances.
"""

import math

import numpy as np
import pytest

from altwalk import lattice, limit, spectral, verify
from altwalk.model import Model
from oracles import eigenvalues, nonzero_sites, scalar_jacobian_inverse


def _criterion(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else " :: " + "; ".join(failures)
    print(f"[criterion {num:02d}] {status}: {description}{tail}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def test_criterion_01_hadamard_single_step(degenerate_model):
    """Balanced coin, one step: probability 1/4 at each of (+-1, +-1)."""
    failures = []
    state = lattice.evolve(
        degenerate_model, lattice.initial_state_delta(np.array([1.0, 0.0])), 1)
    dist = lattice.position_distribution(state)
    got = dict(nonzero_sites(dist))
    for site in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        p = got.pop(site, 0.0)
        if abs(p - 0.25) > 1e-14:
            failures.append(f"p{site} = {p!r}")
    if got:
        failures.append(f"unexpected mass at {sorted(got)}")
    _criterion(1, "single balanced step puts 1/4 at each diagonal neighbour (tol 1e-14)",
               failures)


def test_criterion_02_norm_conservation(reference_suite):
    """Reference model: norm drift over 500 exact steps."""
    details = reference_suite["reports"]["unitarity"].details
    assert details["t"] == 500
    drift = abs(details["norm_sq"] - 1.0)
    failures = [] if drift <= 1e-10 else [f"drift = {drift:.3e}"]
    _criterion(2, f"norm drift after 500 steps = {drift:.3e} (tol 1e-10)", failures)


def test_criterion_03_lattice_vs_spectral(reference_suite):
    """Direct evolution equals the 41^2-mode Fourier reconstruction at t = 20."""
    rep = reference_suite["reports"]["lattice_vs_spectral"]
    assert rep.details["t"] == 20
    failures = [] if rep.metric <= 1e-8 else [f"max amplitude gap = {rep.metric:.3e}"]
    _criterion(3, f"lattice vs spectral max gap at t=20 = {rep.metric:.3e} (tol 1e-8)",
               failures)


def test_criterion_04_spectral_invariants(reference_model, phased_model):
    """Unimodular eigenvalues, eigenvalue product, and group velocity vs FD."""
    failures = []
    rng = np.random.default_rng(2024)
    h = 1e-6
    for label, model in (("reference", reference_model), ("phased", phased_model)):
        k1 = rng.uniform(-math.pi, math.pi, size=10_000)
        k2 = rng.uniform(-math.pi, math.pi, size=10_000)
        lam1, lam2 = eigenvalues(model, k1, k2)
        mod_err = max(np.abs(np.abs(lam1) - 1.0).max(),
                      np.abs(np.abs(lam2) - 1.0).max())
        if mod_err > 1e-12:
            failures.append(f"{label}: |lambda| off by {mod_err:.3e}")
        prod_err = np.abs(lam1 * lam2 - np.exp(1j * model.derived.delta)).max()
        if prod_err > 1e-12:
            failures.append(f"{label}: product off by {prod_err:.3e}")
        for p in (1, 2):
            va = [(1.0, -1.0)[p - 1] * v for v in spectral.group_velocity(model, k1, k2)]
            for axis in (0, 1):
                hp = (k1 + h, k2) if axis == 0 else (k1, k2 + h)
                hm = (k1 - h, k2) if axis == 0 else (k1, k2 - h)
                lp = eigenvalues(model, *hp)[p - 1]
                lm = eigenvalues(model, *hm)[p - 1]
                fd = -np.angle(lp * np.conj(lm)) / (2.0 * h)
                err = np.abs(va[axis] - fd)
                bound = 1e-6 * np.maximum(1.0, np.abs(fd))
                if np.any(err > bound):
                    failures.append(
                        f"{label}: band {p} axis {axis + 1} velocity off by {err.max():.3e}")
    _criterion(4, "10^4 random wavenumbers: unimodularity, product, velocity vs FD "
                  "(tols 1e-12 / 1e-12 / 1e-6 rel)", failures)


def test_criterion_05_reference_constants(reference_model):
    """Hand-checked derived constants of the reference model."""
    d = reference_model.derived
    expected = {"D_J": 0.64, "j_plus": -1.0 / 9.0,
                "axis_R1": 1.8, "axis_R2": 0.2, "axis_T1": 0.2, "axis_T2": 1.8}
    failures = [f"{name} = {getattr(d, name)!r} (want {want})"
                for name, want in expected.items()
                if abs(getattr(d, name) - want) > 1e-12]
    _criterion(5, "derived constants D_J, j_plus, four semi-axes (tol 1e-12)", failures)


def test_criterion_06_jacobian_consistency(reference_model):
    """Forward Jacobian vs FD, branch-matched reciprocal, and centre values."""
    failures = []
    reports = {r.name: r for r in verify.check_jacobian(reference_model, 1000, seed=123)}
    if reports["jacobian_fd"].metric > 1e-6:
        failures.append(f"FD mismatch {reports['jacobian_fd'].metric:.3e}")
    if reports["jacobian_branch"].metric > 1e-8:
        failures.append(f"reciprocal mismatch {reports['jacobian_branch'].metric:.3e}")
    centre = (scalar_jacobian_inverse(reference_model, 0.0, 0.0, +1),
              scalar_jacobian_inverse(reference_model, 0.0, 0.0, -1))
    for got, want in zip(centre, (25.0 / 9.0, 16.0 / 9.0)):
        if abs(got - want) > 1e-9:
            failures.append(f"centre value {got!r} (want {want})")
    _criterion(6, "10^3 samples: |det dv/dk| vs FD (1e-6), reciprocal (1e-8), "
                  "centre values 25/9 and 16/9 (1e-9)", failures)


def test_criterion_07_roundtrip(reference_model):
    """Wavenumber -> velocity -> branch -> wavenumber over 10^4 samples."""
    rep = verify.check_roundtrip(reference_model, 10_000, seed=7)[0]
    failures = []
    if rep.metric > 1e-9:
        failures.append(f"max angular error {rep.metric:.3e}")
    if "phased_error" not in rep.details:
        failures.append("nonzero-phase run missing")
    _criterion(7, f"round trip over 10^4 interior wavenumbers, with and without "
                  f"coin phases: max error {rep.metric:.3e} (tol 1e-9)", failures)


def test_criterion_08_branch_count(reference_model):
    """Exactly 16 valid branches (8 per Jacobian sign) at interior velocities."""
    rng = np.random.default_rng(88)
    v1 = np.empty(1000)
    v2 = np.empty(1000)
    found = 0
    while found < 1000:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        w1, w2 = (float(x) for x in spectral.group_velocity(reference_model, k1, k2))
        if limit.support_contains(reference_model, w1, w2) != "inside":
            continue
        v1[found] = w1
        v2[found] = w2
        found += 1
    count_plus = np.zeros(1000, dtype=int)
    count_minus = np.zeros(1000, dtype=int)
    for sign in (1.0, -1.0):
        for n in range(1, 9):
            square = limit._square_roots(reference_model, sign * v1, sign * v2, n)
            for m in range(1, 5):
                _, _, ok, _ = limit.branch_preimages(reference_model, square, m)
                if m % 2 == 0:
                    count_plus += ok
                else:
                    count_minus += ok
    bad_plus = int(np.count_nonzero(count_plus != 8))
    bad_minus = int(np.count_nonzero(count_minus != 8))
    failures = []
    if bad_plus or bad_minus:
        failures.append(f"{bad_plus} points missing even-m branches, "
                        f"{bad_minus} missing odd-m branches")
    _criterion(8, "10^3 interior velocities each have 8 + 8 preimage branches", failures)


def test_criterion_09_support_containment(reference_model):
    """Forward image of a 512^2 grid inside the two-ellipse region, tightly."""
    reports = {r.name: r for r in verify.check_support(reference_model, 512)}
    violation = reports["support_containment"].metric
    min_er = reports["support_containment"].details["min_E_R"]
    min_et = reports["support_containment"].details["min_E_T"]
    failures = []
    if violation > 1e-12:
        failures.append(f"containment violated by {violation:.3e}")
    if min_er > 1e-3:
        failures.append(f"first ellipse not attained: min residual {min_er:.3e}")
    if min_et > 1e-3:
        failures.append(f"second ellipse not attained: min residual {min_et:.3e}")
    _criterion(9, f"image containment violation {violation:.3e} (tol 1e-12); "
                  f"ellipse residual minima {min_er:.1e}, {min_et:.1e} (tol 1e-3)",
               failures)


def test_criterion_10_density_normalisation(reference_model):
    """The analytic density integrates to one with boundary-shell accounting."""
    spectrum = spectral.fourier_initial(
        lattice.initial_state_delta(np.array([1.0, 0.0])))
    [result] = limit.integrate_density(reference_model, spectrum)
    err = abs(float(result.total) - 1.0)
    failures = [] if err <= 1e-2 else [f"mass {float(result.total)!r}"]
    _criterion(10, f"density mass = {float(result.total):.6f} "
                   f"(shell estimate {float(result.shell_estimate):.2e}, tol 1e-2)",
               failures)


def test_criterion_11_weak_limit(reference_suite):
    """Rescaled walk converges to the analytic density in binned L1."""
    details = reference_suite["reports"]["weak_limit"].details
    assert (details["bins"], details["refine"]) == (50, 16)
    l1 = {int(t): v for t, v in details["l1"].items()}
    assert sorted(l1) == [100, 300, 500]
    failures = []
    if l1[500] > 0.1:
        failures.append(f"L1(500) = {l1[500]:.4f}")
    if not (l1[100] > l1[300] > l1[500]):
        failures.append(f"not strictly decreasing: {l1}")
    _criterion(11, f"50x50-bin L1 at t=100/300/500 = "
                   f"{l1[100]:.4f}/{l1[300]:.4f}/{l1[500]:.4f} "
                   f"(final tol 0.1, strictly decreasing)", failures)


def test_criterion_12_char_function_triangle(reference_suite):
    """Characteristic function: lattice, wavenumber, and density sides agree."""
    details = reference_suite["reports"]["char_triangle"].details
    assert details["t"] == 300
    failures = []
    tri_worst = 0.0
    quad_worst = 0.0
    for xi in ("1,0", "0,1", "1,1"):
        values = details["values"][xi]
        emp, spe, den = values["empirical"], values["spectral"], values["density"]
        tri = max(abs(emp - spe), abs(emp - den), abs(spe - den))
        tri_worst = max(tri_worst, tri)
        quad_worst = max(quad_worst, abs(spe - den))
        if tri > 5e-2:
            failures.append(f"xi=({xi}): pairwise gap {tri:.3e}")
        if abs(spe - den) > 1e-2:
            failures.append(f"xi=({xi}): quadrature gap {abs(spe - den):.3e}")
    _criterion(12, f"char function t=300: worst pairwise gap {tri_worst:.3e} "
                   f"(tol 5e-2), worst quadrature gap {quad_worst:.3e} (tol 1e-2)",
               failures)


def test_criterion_13_degenerate_model(degenerate_model):
    """Balanced-coin limit: closed-form Jacobian and single-ellipse support."""
    failures = []
    for v1, v2 in ((0.3, -0.2), (0.0, 0.0), (-0.55, 0.41), (0.7, 0.7)):
        want = 1.0 / ((1.0 - v1 * v1) * (1.0 - v2 * v2))
        got = scalar_jacobian_inverse(degenerate_model, v1, v2, +1)
        if got != want:
            failures.append(f"plus sign at ({v1}, {v2}): {got!r} != {want!r}")
        if scalar_jacobian_inverse(degenerate_model, v1, v2, -1) != 0.0:
            failures.append(f"minus sign at ({v1}, {v2}) not exactly 0")
    d = degenerate_model.derived
    vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
    w1, w2 = np.meshgrid(vv, vv, indexing="ij")
    u1, u2 = limit.rotated_coords(w1, w2)
    single = u1 * u1 / d.axis_R1 + u2 * u2 / d.axis_R2
    watabe = ((w1 + w2) ** 2 / (4.0 * d.a)
              + (w1 - w2) ** 2 / (4.0 * (1.0 - d.a)))
    grover = limit.reference_ellipse_grover(d.a, w1, w2)
    mism_single = 0
    mism_watabe = 0
    flat = [(float(w1.ravel()[i]), float(w2.ravel()[i])) for i in range(w1.size)]
    inside_flags = [limit.support_contains(degenerate_model, a, b, tol=1e-12) == "inside"
                    for a, b in flat]
    for idx, inside in enumerate(inside_flags):
        s = single.ravel()[idx]
        if abs(s - 1.0) > 1e-12 and inside != (s < 1.0):
            mism_single += 1
        wv = watabe.ravel()[idx]
        if abs(wv - 1.0) > 1e-12 and inside != (wv < 1.0):
            mism_watabe += 1
        if abs(wv - 1.0) > 1e-12 and bool(grover.ravel()[idx]) != (wv < 1.0):
            mism_watabe += 1
    if mism_single:
        failures.append(f"{mism_single} single-ellipse membership mismatches")
    if mism_watabe:
        failures.append(f"{mism_watabe} reference-ellipse membership mismatches")
    _criterion(13, "balanced coin: exact Jacobian form, support membership matches "
                   "the single ellipse and the reference ellipse on a 200^2 grid",
               failures)
