import json
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altwalk import lattice, limit, spectral, verify
from altwalk.model import Model, ParameterDomainError
from oracles import (
    DenseDistribution,
    dense_distribution,
    scalar_check_jacobian,
    scalar_check_weight_table,
    scalar_roundtrip_worst,
    serial_run_suite,
    whole_grid_analytic_bin_masses,
    whole_window_chars,
    whole_window_bin_masses,
    whole_window_escape_mass,
)

DELTA = lattice.initial_state_delta(np.array([1.0, 0.0]))


def _read_walk(model, state0, runners, seed=0):
    """Feed the walk runners from one trajectory, prepare each, return their reports in order."""
    verify._observe_walk(model, state0, runners)
    for runner in runners:
        runner.prepare(seed)
    return [rep for runner in runners for rep in runner.reports(seed)]


SMALL_XI = ((0.0, 0.0), (1.0, -1.0))


def small_char(model, state0):
    """The char_function reader at t = 60 on SMALL_XI, its wavenumber grid and
    density quadrature at reduced sizes."""
    return verify._CharFunction(model, state0, 60, SMALL_XI, grid_n=32, quad=(20, 16))


@pytest.fixture
def small_walk_checks(monkeypatch):
    """The table's walk checks at reduced sizes: walk times 60 and 80, 10 x 10 bins."""
    small = {
        "unitarity": lambda m, s0: verify._Unitarity(80),
        "char_function": small_char,
        "weak_limit": lambda m, s0: verify._WeakLimit(m, s0, (80, 50, 60), 10, 4),
    }
    for name, build in small.items():
        monkeypatch.setitem(verify._CHECKS, name, verify._CHECKS[name]._replace(build=build))


@pytest.fixture
def small_suite(monkeypatch, small_walk_checks):
    """Every check of the table at reduced size."""
    small = {
        "roundtrip": lambda m, s0: verify._Direct(partial(verify.check_roundtrip, samples=500), m),
        "jacobian": lambda m, s0: verify._Direct(partial(verify.check_jacobian, samples=100), m),
        "support": lambda m, s0: verify._Direct(partial(verify.check_support, grid_n=128), m),
        "weight_table": lambda m, s0: verify._Direct(
            partial(verify.check_weight_table, samples=20), m),
    }
    for name, build in small.items():
        monkeypatch.setitem(verify._CHECKS, name, verify._CHECKS[name]._replace(build=build))


def test_report_invariant_and_json(reference_model):
    reports = _read_walk(reference_model, DELTA, [verify._Unitarity(20)])
    assert len(reports) == 1
    rep = reports[0]
    assert rep.passed == (rep.metric <= rep.tolerance)
    parsed = json.loads(rep.to_json())
    assert parsed["name"] == "unitarity"
    assert set(parsed) == {"name", "metric", "tolerance", "passed", "seed", "details"}


def test_reports_reproducible(reference_model):
    a = verify.check_jacobian(reference_model, samples=50, seed=42)
    b = verify.check_jacobian(reference_model, samples=50, seed=42)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    c = verify.check_jacobian(reference_model, samples=50, seed=43)
    assert a[0].metric != c[0].metric


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
@pytest.mark.parametrize("seed", [0, 7])
def test_check_jacobian_matches_scalar_loop(coin, seed, request):
    # rounds of array draws against one draw, gate and difference at a time
    model = request.getfixturevalue(coin)
    got = verify.check_jacobian(model, 150, seed=seed)
    assert got == scalar_check_jacobian(model, 150, seed=seed)
    if coin == "reference_model":  # an excluded draw, so a second round runs
        assert got[0].details["excluded"] > 0


def test_tolerance_override(reference_model, small_walk_checks):
    rep = verify.run_suite(reference_model, only=["unitarity"],
                           tolerances={"unitarity": 0.0})[0]
    assert rep.tolerance == 0.0
    assert not rep.passed


def test_passed_follows_tolerance():
    rep = verify._report("unitarity", 1e-12, 0, {})
    assert rep.tolerance == 1e-10 and rep.passed
    rep.tolerance = 1e-13
    assert not rep.passed
    assert json.loads(rep.to_json())["passed"] is False


def test_run_suite_override_touches_only_its_report(reference_model, small_walk_checks):
    only = ["support", "unitarity"]
    plain = verify.run_suite(reference_model, only=only)
    tight = verify.run_suite(reference_model, only=only,
                             tolerances={"support_containment": 0.0})
    assert [r.name for r in tight] == ["support_containment", "support_tightness", "unitarity"]
    want = [json.loads(r.to_json()) for r in plain]
    assert want[0]["passed"] and not tight[0].passed
    want[0].update(tolerance=0.0, passed=False)
    assert [json.loads(r.to_json()) for r in tight] == want
    assert [r.to_json() for r in tight[1:]] == [r.to_json() for r in plain[1:]]


def test_report_json_types():
    details = {"count": np.int64(3), "x": np.float64(0.25), "z": complex(1.0, -2.0),
               "arr": np.array([1.5, -2.0]), "pair": (1, 2.5),
               "nested": {"k": np.complex128(0.5j), "ok": True}}
    rep = verify._report("unitarity", 0.5, 7, details)
    assert rep.to_json() == (
        '{"details":{"arr":[1.5,-2.0],"count":3,"nested":{"k":[0.0,0.5],"ok":true},'
        '"pair":[1,2.5],"x":0.25,"z":[1.0,-2.0]},"metric":0.5,"name":"unitarity",'
        '"passed":false,"seed":7,"tolerance":1e-10}')


def test_unitarity_single_step(reference_model):
    rep = _read_walk(reference_model, DELTA, [verify._Unitarity(1)])[0]
    assert rep.metric <= 1e-15


def test_lattice_vs_spectral_short(phased_model):
    rep = _read_walk(phased_model, DELTA, [verify._LatticeVsSpectral(phased_model, DELTA, 1)])[0]
    assert rep.metric <= 1e-12
    rep0 = _read_walk(phased_model, DELTA, [verify._LatticeVsSpectral(phased_model, DELTA, 0)])[0]
    assert rep0.metric <= 1e-14


def test_roundtrip_small(phased_model):
    rep = verify.check_roundtrip(phased_model, samples=150, seed=1)[0]
    assert rep.passed
    assert "phased_error" not in rep.details  # model already has phases


def test_roundtrip_adds_phased_sibling(reference_model):
    rep = verify.check_roundtrip(reference_model, samples=60, seed=2)[0]
    assert "phased_error" in rep.details
    assert rep.details["phased_error"] <= rep.tolerance


def test_sampled_checks_fail_when_the_draws_run_out(reference_model, monkeypatch):
    # one draw per sample: where the first round excludes some (the round trip of the
    # phased sibling every other draw, here), the loop stops short and its report reads
    # NaN, which fails at any tolerance, never the worst over fewer samples than it names
    monkeypatch.setattr(verify, "_DRAWS_PER_SAMPLE", 1)
    recovered = verify._recovered
    monkeypatch.setattr(verify, "_recovered", lambda model, k1, *rest: np.where(
        (np.arange(k1.size) % 2) & (model.alpha1 != 0.0), np.inf, recovered(model, k1, *rest)))
    rt, fd, br = (verify.check_roundtrip(reference_model, samples=300, seed=4)
                  + verify.check_jacobian(reference_model, samples=150, seed=0))
    assert 0.0 < rt.details["base_error"] < 1e-9 and rt.details["excluded"] == 0
    assert "accepted" not in rt.details
    assert rt.details["phased_accepted"] == rt.details["phased_excluded"] == 150
    assert np.isnan(rt.details["phased_error"]) and np.isnan(rt.metric) and not rt.passed
    for rep in (fd, br):
        assert np.isnan(rep.metric) and not rep.passed
        assert 0 < rep.details["accepted"] == 150 - rep.details["excluded"] < 150


def test_draw_gates_on_the_open_support_before_accept(phased_model, monkeypatch):
    # _draw owns the support gate: accept sees only the draws the gate keeps, with
    # their velocities, and its mask is over those draws.  Nearly every v of this coin
    # is inside, so a gate narrowed to u1 > 0 stands in for the support
    outside, rejected = [], []
    inside_mask = limit._inside_mask

    def half_mask(model, u1, u2):
        mask = inside_mask(model, u1, u2) & (u1 > 0.0)
        outside.append(mask.size - np.count_nonzero(mask))
        return mask

    def accept(k1, k2, v1, v2):
        assert np.all(limit.rotated_coords(v1, v2)[0] > 0.0)
        assert np.array_equal(np.stack((v1, v2)),
                              spectral.group_velocity(phased_model, k1, k2))
        keep = k1 > -2.0
        rejected.append(k1.size - np.count_nonzero(keep))
        return keep, k1[keep]

    monkeypatch.setattr(limit, "_inside_mask", half_mask)
    details = {}
    k1, k2, v1, v2, value = verify._draw(phased_model, 200, np.random.default_rng(5),
                                         accept, details)
    assert k1.size == 200 and np.array_equal(value, k1) and np.all(k1 > -2.0)
    assert sum(outside) > 0 and sum(rejected) > 0
    assert details == {"excluded": sum(outside) + sum(rejected)}


def test_jacobian_check_fails_on_a_coin_with_no_admissible_draw():
    # |J| <= 4e-6 everywhere on this coin, below the 1e-4 gate: 100 draws per sample,
    # none accepted, and both reports fail with no sample instead of drawing forever
    fd, br = verify.check_jacobian(Model(0.999999, 0.000001), samples=50, seed=0)
    for rep in (fd, br):
        assert np.isnan(rep.metric) and not rep.passed
        assert rep.details == {"samples": 50, "h": 1e-5, "excluded": 5000, "accepted": 0}


def test_sampled_checks_take_zero_samples(reference_model):
    # no draw at all: metric 0 and nothing excluded, on the phased sibling too
    reports = (verify.check_roundtrip(reference_model, samples=0, seed=1)
               + verify.check_jacobian(reference_model, samples=0, seed=1))
    assert [r.name for r in reports] == ["roundtrip", "jacobian_fd", "jacobian_branch"]
    for rep in reports:
        assert rep.metric == 0.0 and rep.details["excluded"] == 0
    assert reports[0].details["phased_excluded"] == 0


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_roundtrip_matches_scalar_loop(coin, seed, request, monkeypatch):
    # same draws, same exclusions, same worst error, same phased-sibling stream
    model = request.getfixturevalue(coin)
    got = [r.to_json() for r in verify.check_roundtrip(model, samples=300, seed=seed)]
    monkeypatch.setattr(verify, "_roundtrip_worst", scalar_roundtrip_worst)
    want = [r.to_json() for r in verify.check_roundtrip(model, samples=300, seed=seed)]
    assert got == want


@settings(max_examples=10, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.booleans(),
       st.lists(st.floats(-np.pi, np.pi), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
@example(0.5, 0.5, True, [0.0] * 6, 0)
@example(1e-6, 0.3, False, [0.0] * 6, 1)
def test_enumeration_checks_match_the_labelled_oracles(a1_sq, a2_sq, equal, phases, seed):
    # the round trip and the branch-matched Jacobian read the enumeration's nearest
    # preimage; the scalar oracles read the one slot each k's label names
    model = Model(a1_sq, a1_sq if equal else a2_sq, *phases)
    got = [r.to_json() for r in verify.check_roundtrip(model, samples=60, seed=seed)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_roundtrip_worst", scalar_roundtrip_worst)
        want = [r.to_json() for r in verify.check_roundtrip(model, samples=60, seed=seed)]
    assert got == want
    assert verify.check_jacobian(model, 60, seed=seed) == scalar_check_jacobian(model, 60, seed=seed)


def test_support_check_reports(reference_model):
    reports = verify.check_support(reference_model, 128)
    names = [r.name for r in reports]
    assert names == ["support_containment", "support_tightness"]
    assert all(r.passed for r in reports)


def test_support_check_degenerate_membership(degenerate_model):
    reports = verify.check_support(degenerate_model, 128)
    by_name = {r.name: r for r in reports}
    assert by_name["support_ellipse_membership"].passed
    assert by_name["support_containment"].details["singular_points"] > 0


@pytest.mark.parametrize("a_sq", [0.5, 0.3])
def test_support_membership_matches_scalar_loop(a_sq):
    model = Model(a_sq, a_sq)
    rep = verify.check_support(model, 128)[-1]
    vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
    member = limit.reference_ellipse_grover(model.derived.a, vv[:, None], vv[None, :])
    mism = sum(
        (limit.support_contains(model, float(a), float(b)) == "inside") != bool(member[i, j])
        for i, a in enumerate(vv) for j, b in enumerate(vv))
    assert rep.name == "support_ellipse_membership"
    assert (rep.details["mismatches"], rep.metric) == (mism, mism / 40000)


def test_char_function_small(reference_model):
    reader = verify._CharFunction(reference_model, DELTA, 60, ((0.0, 0.0), (1.0, 1.0)))
    reports = _read_walk(reference_model, DELTA, [reader])
    by_name = {r.name: r for r in reports}
    zero = by_name["char_triangle"].details["values"]["0,0"]
    for key in ("empirical", "spectral", "density"):
        assert abs(zero[key] - 1.0) < 1e-6
    assert by_name["char_quadratures"].metric <= 1e-2


def test_char_function_nan_value_fails_its_reports(reference_model):
    # a NaN reader value is a NaN gap and a NaN metric, never a passing 0.0
    reader = small_char(reference_model, DELTA)
    verify._observe_walk(reference_model, DELTA, [reader])
    reader.prepare(0)
    reader.spes[1] = complex(np.nan, 0.0)
    gaps = [gap for *_, gap in reader.rows()]
    assert not np.isnan(gaps[0]) and np.isnan(gaps[1])
    reports = reader.reports(0)
    assert [r.name for r in reports] == ["char_triangle", "char_quadratures"]
    for r in reports:
        assert np.isnan(r.metric) and not r.passed


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_char_triples_density_matches_integrate_density(coin, request):
    # one density evaluation shared by the mass and every xi, bit for bit
    model = request.getfixturevalue(coin)
    state0 = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    xi_list = ((0.0, 0.0), (1.0, 0.0), (0.5, -2.0))
    rows, mass = verify.char_triples(model, state0, 12, xi_list, grid_n=32, quad=(20, 16))
    spectrum = spectral.fourier_initial(state0)
    want_mass = limit.integrate_density(model, spectrum, n_theta=20, n_rad=16)[0].total
    assert mass == float(want_mass)
    assert rows[0][3] == 1.0
    for _, emp, spe, den, gap in rows:
        assert gap == max(abs(emp - spe), abs(emp - den), abs(spe - den))
    for (xi1, xi2), _, _, den, _ in rows[1:]:
        weight = lambda a, b: np.exp(1j * (xi1 * a + xi2 * b))
        total = limit.integrate_density(model, spectrum, [weight], n_theta=20, n_rad=16)[0].total
        assert den == complex(total / want_mass)


def test_empirical_bins_lower_edge_rule(reference_model):
    # mass exactly on a bin edge goes to the lower bin
    dist = DenseDistribution(np.array([[1.0]]), x1_min=0, x2_min=0, time=10)
    reader = verify._WeakLimit(reference_model, DELTA, (10,), 4, 4)
    reader.observe(10, dist)  # v = 0 on the 2x2 edge
    assert reader.emp[10][1, 1] == 1.0 and reader.escape == 0.0


def test_analytic_bins_total(reference_model):
    from altwalk import spectral
    spectrum = spectral.fourier_initial(
        lattice.initial_state_delta(np.array([1.0, 0.0])))
    masses, info = verify._analytic_bin_masses(reference_model, spectrum, 25, 16)
    assert masses.sum() == pytest.approx(1.0, abs=2e-2)
    assert info["refused_cells"] == 0


def test_analytic_bins_fill_refused_cells_from_their_neighbours():
    # a degenerate coin whose 40^2 midpoint grid puts 4 inside cells in the boundary
    # shell: each is credited the mean of its evaluable neighbours, as on one grid
    model = Model(0.7714117521159393, 0.7714117521159393)
    spectrum = spectral.fourier_initial(DELTA)
    masses, info = verify._analytic_bin_masses(model, spectrum, 10, 4)
    want_masses, want_info = whole_grid_analytic_bin_masses(model, spectrum, 10, 4)
    assert info["refused_cells"] > 0
    assert np.array_equal(masses, want_masses) and info == want_info


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_weight_table_matches_scalar_loop(coin, request):
    # one batched pass over the samples: same draws, same mismatch count
    model = request.getfixturevalue(coin)
    got = verify.check_weight_table(model, 8, seed=5)
    want = scalar_check_weight_table(model, 8, seed=5)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_site_blocks_are_exact(coin, request, monkeypatch):
    # odd blocks of rows and of density strips, against the whole window and grid
    model = request.getfixturevalue(coin)
    s0 = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    dist = lattice.position_distribution(lattice.evolve(model, s0, 80))
    monkeypatch.setattr(verify, "_SITE_BLOCK", 501)  # 3 of 161 rows; 12 of 40 strip rows
    reader = verify._WeakLimit(model, s0, (80,), 10, 4)
    reader.observe(80, dist)
    assert np.array_equal(reader.emp[80], whole_window_bin_masses(dist, 10))
    assert reader.escape > 0.0 and reader.escape == whole_window_escape_mass(model, dist, 80)
    spectrum = spectral.fourier_initial(s0)
    masses, info = verify._analytic_bin_masses(model, spectrum, 10, 4)
    want_masses, want_info = whole_grid_analytic_bin_masses(model, spectrum, 10, 4)
    assert np.array_equal(masses, want_masses) and info == want_info


def test_walk_free_density_runs_on_the_calling_thread(reference_model, monkeypatch):
    # at the suite's sizes each bin strip (32,000 cells) and each quadrature arc
    # (9,216 nodes) is one density block, so density_grid starts no helper thread
    threads = []
    accumulate = limit._accumulate
    monkeypatch.setattr(limit, "_accumulate",
                        lambda *args: threads.append(threading.get_ident()) or accumulate(*args))
    verify._analytic_bin_masses(reference_model, spectral.fourier_initial(DELTA), 50, 16)
    strips = len(threads)
    verify._CharFunction(reference_model, DELTA, 300, verify.STANDARD_XI).prepare(0)
    assert 0 < strips < len(threads)
    assert set(threads) == {threading.get_ident()}


def test_weight_table_soft(reference_model):
    rep = verify.check_weight_table(reference_model, samples=10, seed=3)[0]
    assert rep.passed  # mismatches are informational, never fatal
    assert rep.details["samples"] == 10


def test_run_suite_subset_and_unknown(reference_model):
    reports = verify.run_suite(reference_model, only=["support"])
    assert [r.name for r in reports] == ["support_containment", "support_tightness"]
    with pytest.raises(KeyError):
        verify.run_suite(reference_model, only=["nope"])
    with pytest.raises(KeyError):
        verify.run_suite(reference_model, only=["support"], tolerances={"nope": 1.0})


def test_run_suite_drops_repeated_names(reference_model):
    once = verify.run_suite(reference_model, only=["support"])
    twice = verify.run_suite(reference_model, only=["support", "support"])
    assert [r.to_json() for r in twice] == [r.to_json() for r in once]
    mixed = verify.run_suite(reference_model, only=["support", "lattice_vs_spectral", "support"])
    assert [r.name for r in mixed] == [r.name for r in once] + ["lattice_vs_spectral"]


def test_run_suite_shares_one_walk(reference_model, reference_suite):
    # one trajectory to T=500; lattice_vs_spectral reads it at t = 20
    assert reference_suite["evolve_steps"] == 500
    # each check that reads no walk equals its public function with the suite's arguments
    direct = (verify.check_roundtrip(reference_model, 10_000, seed=3)
              + verify.check_jacobian(reference_model, 1000, seed=3)
              + verify.check_support(reference_model, 512, seed=3)
              + verify.check_weight_table(reference_model, 200, seed=3))
    assert [r.name for r in direct] == [
        "roundtrip", "jacobian_fd", "jacobian_branch",
        "support_containment", "support_tightness", "weight_table"]
    # lattice_vs_spectral as a walk of its own to t = 20 measures it
    gap = np.abs(lattice.evolve(reference_model, DELTA, 20).amps
                 - spectral.spectral_reconstruct(reference_model, DELTA, 20).amps).max()
    direct.append(verify._report("lattice_vs_spectral", gap, 3, {"t": 20}))
    for r in direct:
        assert reference_suite["reports"][r.name].to_json() == r.to_json()


def test_run_suite_squares_each_snapshot_once(reference_model, reference_suite):
    # char_function reads t = 300 and weak_limit 100, 300 and 500; unitarity reads the
    # state at 500 and lattice_vs_spectral at 20, which are not squared
    assert reference_suite["squared_at"] == [100, 300, 500]


@pytest.mark.parametrize("only", [["unitarity"], ["lattice_vs_spectral"]])
def test_state_readers_square_nothing(only, reference_model, squared_at, small_walk_checks):
    assert [r.name for r in verify.run_suite(reference_model, only=only)] == only
    assert squared_at == []


def test_char_triples_squares_once(reference_model, squared_at):
    verify.char_triples(reference_model, DELTA, 12, SMALL_XI, grid_n=32, quad=(20, 16))
    assert squared_at == [12]


def test_jacobian_check_runs_no_enumeration(reference_model, monkeypatch):
    def refuse(*args):
        raise AssertionError("the Jacobian family comes from the sign of J")

    monkeypatch.setattr(limit, "_preimage_slots", refuse)
    names = [r.name for r in verify.run_suite(reference_model, only=["jacobian"])]
    assert names == ["jacobian_fd", "jacobian_branch"]


def test_run_suite_roundtrip_runs_no_walk(reference_model, evolve_steps):
    reports = verify.run_suite(reference_model, only=["roundtrip"])
    assert [r.name for r in reports] == ["roundtrip"] and evolve_steps == []


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_run_suite_matches_standalone_checks_small(coin, request, small_walk_checks):
    # the suite's one dispatch path on reduced sizes, walk times 60 and 80 shared,
    # against each walk runner fed from a walk of its own
    model = request.getfixturevalue(coin)
    only = ["weak_limit", "support", "unitarity", "char_function"]
    got = verify.run_suite(model, seed=2, only=only)
    want = (_read_walk(model, DELTA, [verify._WeakLimit(model, DELTA, (50, 60, 80), 10, 4)], 2)
            + verify.check_support(model, 512, seed=2)
            + _read_walk(model, DELTA, [verify._Unitarity(80)], 2)
            + _read_walk(model, DELTA, [small_char(model, DELTA)], 2))
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_run_suite_matches_serial_oracle(coin, request, small_suite):
    # the walk on its own thread beside the walk-free checks changes no report
    model = request.getfixturevalue(coin)
    spinor = np.array([0.6, 0.8j])
    got = verify.run_suite(model, spinor, seed=4)
    want = serial_run_suite(model, spinor, seed=4)
    assert [r.name for r in got] == [r.name for r in want]
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


@pytest.mark.parametrize("coin", ["reference_model", "phased_model"])
def test_walk_readers_keep_their_bits_on_several_classes(coin, request, small_walk_checks,
                                                         monkeypatch):
    # one site in each parity class: the readers of the class-stored distribution
    # against the same suite squaring each snapshot into one dense window; blocks of
    # about 501 sites take three or four rows of the windows, 104 to 164 columns wide
    model = request.getfixturevalue(coin)
    start = lattice.initial_state_from_sites({
        (0, 0): (0.3, 0.2j), (1, 0): (0.1 - 0.4j, 0.5),
        (0, 3): (0.4j, -0.3), (3, 1): (0.2, 0.55 + 0.1j)})
    monkeypatch.setattr(verify, "_SITE_BLOCK", 501)
    only = ["unitarity", "char_function", "weak_limit"]
    square = lattice.position_distribution
    classes = []

    def counting(state):
        dist = square(state)
        classes.append(len(dist.classes))
        return dist

    monkeypatch.setattr(lattice, "position_distribution", counting)
    got = serial_run_suite(model, seed=5, only=only, state0=start)
    monkeypatch.setattr(lattice, "position_distribution", dense_distribution)
    want = serial_run_suite(model, seed=5, only=only, state0=start)
    assert classes == [4, 4, 4]
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


@pytest.mark.parametrize("only", [
    ["weak_limit", "lattice_vs_spectral", "char_function"],
    ["support", "weight_table", "jacobian"],
    ["unitarity", "support"],
    ["weak_limit"],
])
def test_run_suite_subsets_match_serial_oracle(only, reference_model, small_suite):
    tolerances = {"weak_limit": 0.5, "support_tightness": 0.0}
    got = verify.run_suite(reference_model, seed=6, only=only, tolerances=tolerances)
    want = serial_run_suite(reference_model, seed=6, only=only, tolerances=tolerances)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


def _hold_walk(monkeypatch):
    """Patch ``lattice.evolve`` to wait for the returned event, then 0.2 s more."""
    release = threading.Event()
    evolve = lattice.evolve

    def held(model, state, t):
        release.wait(timeout=10)
        time.sleep(0.2)
        return evolve(model, state, t)

    monkeypatch.setattr(lattice, "evolve", held)
    return release


def test_run_suite_raises_walk_error_after_join(reference_model, monkeypatch, small_walk_checks):
    boom = RuntimeError("walk failed")

    def evolve(model, state, t):
        raise boom

    monkeypatch.setattr(lattice, "evolve", evolve)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        verify.run_suite(reference_model, only=["roundtrip", "unitarity"])
    assert info.value is boom
    assert threading.active_count() == before


def test_run_suite_raises_check_error_after_join(reference_model, monkeypatch, small_walk_checks):
    # the walk is still running when the walk-free check raises; run_suite waits for it
    boom = RuntimeError("check failed")
    release = _hold_walk(monkeypatch)

    def check(*args, **kwargs):
        release.set()
        raise boom

    monkeypatch.setattr(verify, "check_roundtrip", check)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        verify.run_suite(reference_model, only=["unitarity", "roundtrip"])
    assert info.value is boom
    assert threading.active_count() == before


def test_run_suite_check_error_stops_the_walk(reference_model, evolve_steps, monkeypatch):
    # a refusal on the calling thread ends the full-size walk (times 100, 300, 500)
    # at its next snapshot instead of at its last time
    boom = ParameterDomainError("refused")
    release = _hold_walk(monkeypatch)

    def check(*args, **kwargs):
        release.set()
        raise boom

    monkeypatch.setattr(verify, "check_roundtrip", check)
    before = threading.active_count()
    with pytest.raises(ParameterDomainError) as info:
        verify.run_suite(reference_model, only=["roundtrip", "weak_limit"])
    assert info.value is boom
    assert threading.active_count() == before
    assert evolve_steps == [100]


def test_walk_checks_read_their_snapshots(phased_model):
    # each walk runner against its quantity from a one-shot evolve per time
    s0 = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    states = {t: lattice.evolve(phased_model, s0, t) for t in (50, 60, 80)}
    dists = {t: lattice.position_distribution(st) for t, st in states.items()}
    xi_list = SMALL_XI
    unit, *weak, char, _ = _read_walk(phased_model, s0, [
        verify._Unitarity(80),
        verify._WeakLimit(phased_model, s0, (80, 50, 60), 10, 4),
        small_char(phased_model, s0)])
    assert unit.details["norm_sq"] == states[80].norm_sq()
    analytic, _ = verify._analytic_bin_masses(phased_model, spectral.fourier_initial(s0), 10, 4)
    assert weak[0].details["l1"] == {
        str(t): float(np.abs(whole_window_bin_masses(d, 10) - analytic).sum())
        for t, d in dists.items()}
    assert weak[2].metric == whole_window_escape_mass(phased_model, dists[80], 80)
    emps = whole_window_chars(dists[60], 60, xi_list)
    assert [v["empirical"] for v in char.details["values"].values()] == emps


def test_summary_table_format(reference_model):
    reports = verify.run_suite(reference_model, only=["support"])
    table = verify.summary_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("check")
    assert any("pass" in line for line in lines[1:])


def test_write_reports(tmp_path, reference_model):
    reports = verify.run_suite(reference_model, only=["support"])
    path = tmp_path / "reports.jsonl"
    verify.write_reports(reports, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(reports)
    assert json.loads(lines[0])["name"] == "support_containment"
