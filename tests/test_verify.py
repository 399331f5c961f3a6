import json

import numpy as np
import pytest

from altwalk import lattice, limit, spectral, verify
from altwalk.lattice import PositionDistribution
from altwalk.model import CoinParameters, build_model
from oracles import scalar_roundtrip_worst


def test_report_invariant_and_json(reference_model):
    reports = verify.check_unitarity(reference_model, t=20)
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


def test_tolerance_override(reference_model):
    rep = verify.check_unitarity(reference_model, t=5,
                                 tolerances={"unitarity": 0.0})[0]
    assert rep.tolerance == 0.0
    assert not rep.passed


def test_unitarity_single_step(reference_model):
    rep = verify.check_unitarity(reference_model, t=1)[0]
    assert rep.metric <= 1e-15


def test_lattice_vs_spectral_short(phased_model):
    rep = verify.check_lattice_vs_spectral(phased_model, None, 1)[0]
    assert rep.metric <= 1e-12
    rep0 = verify.check_lattice_vs_spectral(phased_model, None, 0)[0]
    assert rep0.metric <= 1e-14


def test_lattice_vs_spectral_rejects_large_t(reference_model):
    with pytest.raises(ValueError):
        verify.check_lattice_vs_spectral(reference_model, None, 65)


def test_roundtrip_small(phased_model):
    rep = verify.check_roundtrip(phased_model, samples=150, seed=1)[0]
    assert rep.passed
    assert "phased_error" not in rep.details  # model already has phases


def test_roundtrip_adds_phased_sibling(reference_model):
    rep = verify.check_roundtrip(reference_model, samples=60, seed=2)[0]
    assert "phased_error" in rep.details
    assert rep.details["phased_error"] <= rep.tolerance


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_roundtrip_matches_scalar_loop(coin, seed, request, monkeypatch):
    # same draws, same exclusions, same worst error, same phased-sibling stream
    model = request.getfixturevalue(coin)
    got = [r.to_json() for r in verify.check_roundtrip(model, samples=300, seed=seed)]
    monkeypatch.setattr(verify, "_roundtrip_worst", scalar_roundtrip_worst)
    want = [r.to_json() for r in verify.check_roundtrip(model, samples=300, seed=seed)]
    assert got == want


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
    model = build_model(CoinParameters.from_squared_moduli(a_sq, a_sq))
    rep = verify.check_support(model, 128)[-1]
    vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
    member = limit.reference_ellipse_grover(model.derived.a, vv[:, None], vv[None, :])
    mism = sum(
        (limit.support_contains(model, float(a), float(b)) == "inside") != bool(member[i, j])
        for i, a in enumerate(vv) for j, b in enumerate(vv))
    assert rep.name == "support_ellipse_membership"
    assert (rep.details["mismatches"], rep.metric) == (mism, mism / 40000)


def test_char_function_small(reference_model):
    reports = verify.check_char_function(
        reference_model, None, 60, ((0.0, 0.0), (1.0, 1.0)))
    by_name = {r.name: r for r in reports}
    zero = by_name["char_triangle"].details["values"]["0,0"]
    for key in ("empirical", "spectral", "density"):
        assert abs(zero[key] - 1.0) < 1e-6
    assert by_name["char_quadratures"].metric <= 1e-2


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_char_triples_density_matches_integrate_density(coin, request):
    # one density evaluation shared by the mass and every xi, bit for bit
    model = request.getfixturevalue(coin)
    state0 = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    xi_list = ((0.0, 0.0), (1.0, 0.0), (0.5, -2.0))
    rows, mass = verify.char_triples(model, state0, 12, xi_list, grid_n=32, quad=(20, 16))
    spectrum = spectral.fourier_initial(state0)
    want_mass = limit.integrate_density(model, spectrum, n_theta=20, n_rad=16).total
    assert mass == float(want_mass)
    assert rows[0][3] == 1.0
    for (xi1, xi2), _, _, den in rows[1:]:
        weight = lambda a, b: np.exp(1j * (xi1 * a + xi2 * b))
        total = limit.integrate_density(model, spectrum, weight, n_theta=20, n_rad=16).total
        assert den == complex(total / want_mass)


def test_char_function_rejects_large_xi(reference_model):
    with pytest.raises(ValueError):
        verify.check_char_function(reference_model, None, 60, ((4.0, 0.0),))


def test_empirical_bins_lower_edge_rule():
    # mass exactly on a bin edge goes to the lower bin
    probs = np.array([[1.0]])
    dist = PositionDistribution(probs=probs, x1_min=0, x2_min=0, time=10)
    bins = verify._empirical_bin_masses(dist, 4)  # v = 0 on the 2x2 edge
    assert bins[1, 1] == 1.0


def test_analytic_bins_total(reference_model):
    from altwalk import spectral
    spectrum = spectral.fourier_initial(
        lattice.initial_state_delta(np.array([1.0, 0.0])))
    masses, info = verify._analytic_bin_masses(reference_model, spectrum, 25, 16)
    assert masses.sum() == pytest.approx(1.0, abs=2e-2)
    assert info["refused_cells"] == 0


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


def _standalone(model, seed):
    """Every check called on its own with the suite's arguments, in suite order."""
    return (verify.check_unitarity(model, 500, seed=seed)
            + verify.check_lattice_vs_spectral(model, None, 20, seed=seed)
            + verify.check_roundtrip(model, 10_000, seed=seed)
            + verify.check_jacobian(model, 1000, seed=seed)
            + verify.check_support(model, 512, seed=seed)
            + verify.check_char_function(model, None, 300, seed=seed)
            + verify.check_weak_limit(model, None, (100, 300, 500), 50, seed=seed)
            + verify.check_weight_table(model, 200, seed=seed))


def _count_steps(monkeypatch):
    steps = []
    evolve = lattice.evolve

    def counting(model, state, t):
        steps.append(t)
        return evolve(model, state, t)

    monkeypatch.setattr(lattice, "evolve", counting)
    return steps


def test_run_suite_shares_one_walk(reference_model, monkeypatch):
    # one trajectory to T=500 plus the 20 steps of lattice_vs_spectral
    steps = _count_steps(monkeypatch)
    got = verify.run_suite(reference_model, seed=3)
    assert sum(steps) == 520
    monkeypatch.undo()
    assert [r.to_json() for r in got] == [r.to_json() for r in _standalone(reference_model, 3)]


def test_run_suite_roundtrip_runs_no_walk(reference_model, monkeypatch):
    steps = _count_steps(monkeypatch)
    reports = verify.run_suite(reference_model, only=["roundtrip"])
    assert [r.name for r in reports] == ["roundtrip"] and steps == []


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_run_suite_matches_standalone_checks_small(coin, request, monkeypatch):
    # the suite's walk plumbing on reduced sizes: shared times 60 and 80
    model = request.getfixturevalue(coin)
    xi_list = ((0.0, 0.0), (1.0, -1.0))
    monkeypatch.setattr(verify, "_WALK_USES", {
        "unitarity": lambda m, s0: verify._Unitarity(80),
        "char_function": lambda m, s0: verify._CharFunction(m, s0, 60, xi_list),
        "weak_limit": lambda m, s0: verify._WeakLimit(m, s0, (80, 50, 60), 10, 4),
    })
    only = ["weak_limit", "support", "unitarity", "char_function"]
    got = verify.run_suite(model, seed=2, only=only)
    want = (verify.check_weak_limit(model, None, (50, 60, 80), 10, refine=4, seed=2)
            + verify.check_support(model, 512, seed=2)
            + verify.check_unitarity(model, 80, seed=2)
            + verify.check_char_function(model, None, 60, xi_list, seed=2))
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


def test_walk_checks_read_their_snapshots(phased_model):
    # each walk check against its quantity from a one-shot evolve per time
    s0 = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    states = {t: lattice.evolve(phased_model, s0, t) for t in (50, 60, 80)}
    dists = {t: lattice.position_distribution(st) for t, st in states.items()}
    unit = verify.check_unitarity(phased_model, 80, s0)[0]
    assert unit.details["norm_sq"] == states[80].norm_sq()
    weak = verify.check_weak_limit(phased_model, s0, (80, 50, 60), 10, refine=4)
    analytic, _ = verify._analytic_bin_masses(phased_model, spectral.fourier_initial(s0), 10, 4)
    assert weak[0].details["l1"] == {
        str(t): float(np.abs(verify._empirical_bin_masses(d, 10) - analytic).sum())
        for t, d in dists.items()}
    assert weak[2].metric == verify._escape_mass(phased_model, dists[80], 80)
    xi_list = ((0.0, 0.0), (1.0, -1.0))
    char = verify.check_char_function(phased_model, s0, 60, xi_list)[0]
    emps = verify._empirical_chars(dists[60], 60, xi_list)
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
