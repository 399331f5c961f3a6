import json

import numpy as np
import pytest

from altwalk import lattice, limit, verify
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
