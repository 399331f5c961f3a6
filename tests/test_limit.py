import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altwalk import lattice, limit, spectral
from altwalk.model import CoinParameters, build_model
from oracles import (
    per_weight_integrate_density,
    scalar_classify_branch,
    scalar_inverse_map,
    scalar_weight_table_sets,
)


@pytest.fixture(scope="module")
def reference_spectrum():
    return spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))


def _interior_points(model, rng, count):
    """Velocity points strictly inside the support, sampled through the forward map."""
    out1, out2 = [], []
    while len(out1) < count:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in limit.forward_map(model, k1, k2))
        if limit.support_contains(model, v1, v2) == "inside":
            out1.append(v1)
            out2.append(v2)
    return np.array(out1), np.array(out2)


# --- support geometry -------------------------------------------------------


def test_forward_map_center(reference_model):
    v1, v2 = limit.forward_map(reference_model, math.pi / 2, math.pi / 2)
    assert v1 == pytest.approx(0.0, abs=1e-15)
    assert v2 == pytest.approx(0.0, abs=1e-15)


def test_support_contains_classification(reference_model):
    assert limit.support_contains(reference_model, 0.0, 0.0) == "inside"
    assert limit.support_contains(reference_model, 0.9, 0.0) == "outside"
    # corner point (0.6, 0) sits on both ellipses
    assert limit.support_contains(reference_model, 0.6, 0.0) == "boundary"


def test_support_corners_reference(reference_model):
    corners = limit.support_corners(reference_model)
    assert corners.shape == (4, 2)
    expected = {(0.6, 0.0), (-0.6, 0.0), (0.0, 0.6), (0.0, -0.6)}
    got = {(round(float(c[0]), 12), round(float(c[1]), 12)) for c in corners}
    assert got == expected


def test_support_corners_empty_when_degenerate(degenerate_model):
    assert limit.support_corners(degenerate_model).shape == (0, 2)


def test_support_radius_axes(reference_model):
    # along u1: tighter ellipse has semi-axis sqrt(0.2)
    assert limit.support_radius(reference_model, 0.0) == pytest.approx(
        math.sqrt(0.2), abs=1e-14)
    assert limit.support_radius(reference_model, math.pi / 2) == pytest.approx(
        math.sqrt(0.2), abs=1e-14)


def test_boundary_polyline_on_boundary(reference_model):
    pts = limit.support_boundary(reference_model, 256)
    for v1, v2 in pts[::16]:
        assert limit.support_contains(reference_model, float(v1), float(v2)) == "boundary"


def test_degenerate_boundary_is_circle(degenerate_model):
    pts = limit.support_boundary(degenerate_model, 128)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.abs(radii - 1.0).max() < 1e-12


# --- Jacobians --------------------------------------------------------------


def test_jacobian_inverse_center_values(reference_model):
    assert limit.jacobian_inverse(reference_model, 0.0, 0.0, +1) == pytest.approx(
        25.0 / 9.0, abs=1e-12)
    assert limit.jacobian_inverse(reference_model, 0.0, 0.0, -1) == pytest.approx(
        16.0 / 9.0, abs=1e-12)


def test_jacobian_inverse_outside_raises(reference_model):
    with pytest.raises(limit.OutsideSupportError):
        limit.jacobian_inverse(reference_model, 0.95, 0.0, +1)


def test_jacobian_forward_positive_inside(reference_model):
    rng = np.random.default_rng(9)
    for _ in range(50):
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        assert limit.jacobian_forward(reference_model, k1, k2) >= 0.0


def test_degenerate_jacobian_form(degenerate_model):
    for v1, v2 in ((0.2, -0.1), (0.55, 0.3), (0.0, 0.0)):
        expect = 1.0 / ((1.0 - v1 * v1) * (1.0 - v2 * v2))
        assert limit.jacobian_inverse(degenerate_model, v1, v2, +1) == expect
        assert limit.jacobian_inverse(degenerate_model, v1, v2, -1) == 0.0


# --- branch structure -------------------------------------------------------


def test_classify_branch_example(reference_model):
    br = limit.classify_branch(reference_model, math.pi / 2, math.pi / 2)
    assert (br.n, br.m, br.s, br.p) == (1, 1, "R", 1)


def test_branch_validation():
    with pytest.raises(ValueError):
        limit.Branch(0, 1, "R", 1)
    with pytest.raises(ValueError):
        limit.Branch(1, 5, "R", 1)
    with pytest.raises(ValueError):
        limit.Branch(1, 1, "X", 1)
    with pytest.raises(ValueError):
        limit.Branch(1, 1, "R", 3)


def test_inverse_map_center(reference_model):
    k1, k2 = limit.inverse_map(reference_model, 0.0, 0.0, limit.Branch(1, 1, "R", 1))
    assert k1 == pytest.approx(math.pi / 2, abs=1e-12)
    assert k2 == pytest.approx(math.pi / 2, abs=1e-12)


def test_inverse_map_outside_raises(reference_model):
    with pytest.raises(limit.OutsideSupportError):
        limit.inverse_map(reference_model, 0.9, 0.3, limit.Branch(1, 1, "R", 1))


def test_roundtrip_with_phases(phased_model):
    rng = np.random.default_rng(10)
    worst = 0.0
    done = 0
    while done < 200:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in limit.forward_map(phased_model, k1, k2))
        if limit.support_contains(phased_model, v1, v2) != "inside":
            continue
        br = limit.classify_branch(phased_model, k1, k2)
        r1, r2 = limit.inverse_map(phased_model, v1, v2, br)
        worst = max(worst, limit._torus_dist(k1, k2, r1, r2))
        done += 1
    assert worst < 1e-9


def test_sixteen_branches_interior(reference_model):
    rng = np.random.default_rng(11)
    v1, v2 = _interior_points(reference_model, rng, 40)
    count_plus = np.zeros(v1.shape, dtype=int)
    count_minus = np.zeros(v1.shape, dtype=int)
    for p in (1, 2):
        for n in range(1, 9):
            for m in range(1, 5):
                _, _, ok = limit.branch_preimages(reference_model, v1, v2, n, m, p)
                if m % 2 == 0:
                    count_plus += ok
                else:
                    count_minus += ok
    assert np.all(count_plus == 8)
    assert np.all(count_minus == 8)


def test_forward_consistency_of_preimages(reference_model):
    rng = np.random.default_rng(12)
    v1, v2 = _interior_points(reference_model, rng, 10)
    for p in (1, 2):
        sign = 1.0 if p == 1 else -1.0
        for n in range(1, 9):
            for m in range(1, 5):
                k1, k2, ok = limit.branch_preimages(reference_model, v1, v2, n, m, p)
                if not ok.any():
                    continue
                w1, w2 = limit.forward_map(reference_model, k1[ok], k2[ok])
                assert np.abs(w1 - sign * v1[ok]).max() < 1e-9
                assert np.abs(w2 - sign * v2[ok]).max() < 1e-9


# --- array labels and inversion against the scalar loops -------------------


def _label_probe_wavenumbers(model, rng, count):
    """Random k, k on the pi/4 lattice (rotated angles l on multiples of pi/2,
    the windmill and sector ties, for phase-free coins), k whose l are those
    lattice values for phased coins, and k at and next to the wrap at +-pi."""
    d = model.derived
    k1 = [rng.uniform(-math.pi, math.pi, count)]
    k2 = [rng.uniform(-math.pi, math.pi, count)]
    grid = math.pi / 4 * np.arange(-4, 5)
    k1.append(np.repeat(grid, grid.size))
    k2.append(np.tile(grid, grid.size))
    l1 = math.pi / 2 * np.repeat(np.arange(-4, 5), 9)
    l2 = math.pi / 2 * np.tile(np.arange(-4, 5), 9)
    k1.append(0.5 * (l1 - l2) - d.phi_1)
    k2.append(0.5 * (l1 + l2) - d.phi_2)
    edge = np.array([-math.pi, math.pi, np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 0.0)])
    k1.append(np.repeat(edge, edge.size))
    k2.append(np.tile(edge, edge.size))
    return np.concatenate(k1), np.concatenate(k2)


def assert_labels_match_scalar_loop(model, k1, k2):
    n, m, is_r = limit._branch_labels(model, k1, k2)
    for i in range(k1.size):
        want = scalar_classify_branch(model, k1[i], k2[i])
        got = (int(n[i]), int(m[i]), "R" if is_r[i] else "T")
        assert got == (want.n, want.m, want.s), (k1[i], k2[i])
        assert limit.classify_branch(model, k1[i], k2[i]) == want


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_branch_labels_match_scalar_loop(coin, request):
    model = request.getfixturevalue(coin)
    k1, k2 = _label_probe_wavenumbers(model, np.random.default_rng(21), 400)
    assert_labels_match_scalar_loop(model, k1, k2)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
def test_branch_labels_match_scalar_loop_property(a1_sq, a2_sq, phases, seed):
    model = build_model(CoinParameters.from_squared_moduli(a1_sq, a2_sq, *phases))
    k1, k2 = _label_probe_wavenumbers(model, np.random.default_rng(seed), 20)
    assert_labels_match_scalar_loop(model, k1, k2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (limit.BranchError, limit.OutsideSupportError) as exc:
        return type(exc)


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_inverse_map_matches_scalar_path(coin, request):
    # every branch label in both bands; band 2 is inverted as -v in band 1
    model = request.getfixturevalue(coin)
    v1, v2 = _interior_points(model, np.random.default_rng(22), 6)
    pts = list(zip(v1.tolist(), v2.tolist())) + [(0.0, 0.0), (0.1, 0.1), (0.95, 0.0)]
    for w1, w2 in pts:
        for p in (1, 2):
            for n in range(1, 9):
                for m in range(1, 5):
                    for s in ("R", "T"):
                        br = limit.Branch(n, m, s, p)
                        assert (_outcome(limit.inverse_map, model, w1, w2, br)
                                == _outcome(scalar_inverse_map, model, w1, w2, br)), br


# --- density ----------------------------------------------------------------


def test_density_refusals(reference_model, reference_spectrum):
    with pytest.raises(limit.OutsideSupportError):
        limit.density(reference_model, reference_spectrum, 0.9, 0.0)


def test_density_positive_inside(reference_model, reference_spectrum):
    rng = np.random.default_rng(13)
    v1, v2 = _interior_points(reference_model, rng, 25)
    grid = limit.density_grid(reference_model, reference_spectrum, v1, v2)
    assert np.all(grid.f[grid.evaluable] > 0.0)


def test_density_grid_masks(reference_model, reference_spectrum):
    grid = limit.density_grid(
        reference_model, reference_spectrum,
        np.array([0.0, 0.9]), np.array([0.0, 0.0]))
    assert grid.inside.tolist() == [True, False]
    assert grid.evaluable.tolist() == [True, False]
    assert grid.f[1] == 0.0
    assert grid.branch_plus[0] == 8 and grid.branch_minus[0] == 8
    # at the origin every preimage carries unit total band weight, so
    # f(0,0) = 4*(25/9) + 4*(16/9) for any delta start
    assert abs(grid.f[0] - 164.0 / 9.0) < 1e-9


def test_density_continuous_across_rotated_axes(reference_model, reference_spectrum):
    # v1 == v2 puts the preimage angles on shared square corners; the value
    # there must match the limit from either side, not double-count slots
    grid = limit.density_grid(
        reference_model, reference_spectrum,
        np.array([0.1, 0.1, 0.1, -0.1]), np.array([0.1, 0.1 + 1e-6, 0.1 - 1e-6, 0.1]))
    assert grid.branch_plus.tolist() == [8, 8, 8, 8]
    assert abs(grid.f[0] - grid.f[1]) < 1e-4 * grid.f[0]
    assert abs(grid.f[0] - grid.f[2]) < 1e-4 * grid.f[0]


def test_degenerate_branches_deduplicated(degenerate_model):
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))
    grid = limit.density_grid(
        degenerate_model, spectrum, np.array([0.2, -0.3]), np.array([-0.1, 0.25]))
    assert grid.branch_plus.tolist() == [8, 8]
    assert grid.branch_minus.tolist() == [0, 0]
    assert np.all(grid.f > 0.0)


def test_density_mass_near_one(reference_model, reference_spectrum):
    result = limit.integrate_density(reference_model, reference_spectrum)
    assert result.total == pytest.approx(1.0, abs=1e-2)
    assert result.shell_estimate >= 0.0


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_integrate_density_matches_per_weight_quadrature(coin, request):
    # f evaluated once per node set, then weighted: the same bits as weighting inside
    model = request.getfixturevalue(coin)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))
    weights = (None, lambda a, b: np.exp(1j * (1.0 * a - 0.5 * b)))
    for weight in weights:
        got = limit.integrate_density(model, spectrum, weight, n_theta=20, n_rad=16)
        want = per_weight_integrate_density(model, spectrum, weight, n_theta=20, n_rad=16)
        assert (got.value, got.shell_estimate, got.total) == (
            want.value, want.shell_estimate, want.total)


def test_density_swap_plus_reflection_symmetric(reference_model):
    # f(v) + f(-v) is symmetric under swapping the two axes for point starts
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))
    pts = [(0.12, 0.31), (-0.2, 0.05), (0.3, -0.2)]
    for v1, v2 in pts:
        forward = (limit.density(reference_model, spectrum, v1, v2)
                   + limit.density(reference_model, spectrum, -v1, -v2))
        swapped = (limit.density(reference_model, spectrum, v2, v1)
                   + limit.density(reference_model, spectrum, -v2, -v1))
        assert forward == pytest.approx(swapped, rel=1e-9)


def test_balanced_spinor_density_symmetric(reference_model):
    # the (1, i)/sqrt(2) start gives a density symmetric in v -> (v2, v1)
    spinor = np.array([1.0, 1.0j]) / math.sqrt(2)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(spinor))
    for v1, v2 in [(0.1, 0.3), (-0.25, 0.3)]:
        f_a = limit.density(reference_model, spectrum, v1, v2)
        f_b = limit.density(reference_model, spectrum, v2, v1)
        assert f_a == pytest.approx(f_b, rel=1e-9)


# --- exactness against the full enumeration ---------------------------------


def full_density_grid(model, spectrum, v1, v2):
    """Oracle: every (p, n, m) slot of branch_preimages run over every point.

    This is the enumeration density_grid made before it selected points per
    slot.  Generic models drop repeated preimages per band at points on the
    rotated axes; degenerate models at every point and across both bands.
    Returns flat (f, inside, evaluable, branch_plus, branch_minus).
    """
    v1, v2 = (a.ravel() for a in np.broadcast_arrays(np.asarray(v1, float), np.asarray(v2, float)))
    u1, u2 = limit.rotated_coords(v1, v2)
    inside = limit._inside_mask(model, u1, u2)
    big_a, big_b, e_r, e_t, d_quarter = limit._terms_from_u(model, u1, u2)
    evaluable = inside & (e_r * e_t >= limit.SHELL_FLOOR)
    degenerate = model.derived.degenerate
    if degenerate:
        jinv = (1.0 / np.where(evaluable, (1.0 - v1 * v1) * (1.0 - v2 * v2), 1.0),) * 2
        dedup = np.ones(v1.shape, dtype=bool)
    else:
        root = np.sqrt(np.maximum(d_quarter, 0.0))
        safe = np.where(evaluable, root, 1.0)
        jinv = ((big_b + root) / (2.0 * big_a * safe), (big_b - root) / (2.0 * big_a * safe))
        dedup = (np.abs(u1) < 1e-7) | (np.abs(u2) < 1e-7)
    f = np.zeros(v1.shape)
    counts = (np.zeros(v1.shape, dtype=np.int64), np.zeros(v1.shape, dtype=np.int64))
    kept = []
    for p in (1, 2):
        if not degenerate:
            kept = []
        for n in range(1, 9):
            for m in range(1, 5):
                k1, k2, ok = limit.branch_preimages(model, v1, v2, n, m, p)
                ok &= evaluable
                for pk1, pk2, pok in kept:
                    ok &= ~(pok & (limit._torus_dist(k1, k2, pk1, pk2) < limit.DEDUP_K_TOL))
                kept.append((k1, k2, ok & dedup))
                idx = np.nonzero(ok)[0]
                w1, w2 = spectral.band_weights(model, spectrum, k1[idx], k2[idx])
                f[idx] += (w1 if p == 1 else w2) * jinv[m % 2][idx]
                counts[0 if degenerate else m % 2][idx] += 1
    return f, inside, evaluable, counts[0], counts[1]


def assert_matches_full_enumeration(model, spectrum, v1, v2):
    grid = limit.density_grid(model, spectrum, v1, v2)
    fields = ("f", "inside", "evaluable", "branch_plus", "branch_minus")
    for name, want in zip(fields, full_density_grid(model, spectrum, v1, v2)):
        assert np.array_equal(getattr(grid, name).ravel(), want), name
    return grid


def _probe_points(model):
    """A midpoint grid whose diagonals lie on the rotated axes, points on and
    3e-8 off those axes, and points just inside the boundary and corners."""
    mid = -1.0 + (2.0 * np.arange(41) + 1.0) / 41
    t = np.linspace(-0.6, 0.6, 13)
    rim = np.concatenate([limit.support_boundary(model, 48), limit.support_corners(model)])
    v1 = [np.repeat(mid, 41), t, t, t, t + 3e-8]
    v2 = [np.tile(mid, 41), t, -t, t + 3e-8, -t]
    for scale in (1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-10):
        v1.append(scale * rim[:, 0])
        v2.append(scale * rim[:, 1])
    return np.concatenate(v1), np.concatenate(v2)


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_density_grid_matches_full_enumeration(coin, request):
    model = request.getfixturevalue(coin)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))
    v1, v2 = _probe_points(model)
    grid = assert_matches_full_enumeration(model, spectrum, v1, v2)
    u1, u2 = limit.rotated_coords(v1, v2)
    on_axis = (u1 == 0.0) | (u2 == 0.0)
    assert np.any(grid.evaluable & on_axis)
    assert np.any(grid.inside & ~grid.evaluable)  # the refused boundary shell


def test_scalar_density_matches_full_enumeration(reference_model, degenerate_model):
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))
    for model in (reference_model, degenerate_model):
        for v1, v2 in ((0.0, 0.0), (0.2, -0.2), (0.12, 0.31)):
            want = full_density_grid(model, spectrum, np.array([v1]), np.array([v2]))[0]
            assert limit.density(model, spectrum, v1, v2) == want[0]


unit = st.floats(0.01, 0.99)
phase = st.floats(-math.pi, math.pi)


@settings(max_examples=20, deadline=None)
@given(unit, unit, st.booleans(), st.lists(phase, min_size=6, max_size=6),
       st.floats(0.0, math.pi / 2), phase)
def test_density_grid_matches_full_enumeration_property(a1_sq, a2_sq, degenerate, phases,
                                                        theta, psi_phase):
    if degenerate:  # equal moduli give a + b = 1
        a2_sq = a1_sq
    model = build_model(CoinParameters.from_squared_moduli(a1_sq, a2_sq, *phases))
    spinor = np.array([math.cos(theta), np.exp(1j * psi_phase) * math.sin(theta)])
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(spinor))
    mid = -1.0 + (2.0 * np.arange(15) + 1.0) / 15
    assert_matches_full_enumeration(model, spectrum, mid[:, None], mid[None, :])


# --- reference curves -------------------------------------------------------


def test_grover_reference_ellipse():
    inside = limit.reference_ellipse_grover(0.5, np.array([0.3]), np.array([0.0]))
    outside = limit.reference_ellipse_grover(0.5, np.array([0.9]), np.array([-0.9]))
    assert bool(inside[0]) and not bool(outside[0])


def test_weight_table_report_keys(reference_model):
    rep = limit.weight_table_report(reference_model, 0.1, 0.25)
    assert set(rep) == {"octant", "expected_band1", "expected_band2",
                        "actual_band1", "actual_band2", "matches"}
    assert sorted(rep["actual_band1"] + rep["actual_band2"]) != []


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_weight_table_report_matches_all_slots(coin, request):
    model = request.getfixturevalue(coin)
    v1, v2 = _interior_points(model, np.random.default_rng(23), 8)
    for w1, w2 in list(zip(v1.tolist(), v2.tolist())) + [(0.0, 0.0), (0.1, 0.1), (0.2, 0.0)]:
        rep = limit.weight_table_report(model, w1, w2)
        want = scalar_weight_table_sets(model, w1, w2)
        assert (rep["actual_band1"], rep["actual_band2"]) == (sorted(want[1]), sorted(want[2]))
