import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altwalk import lattice
from altwalk.model import CoinParameters, build_model


def dense_evolve(model, state, t):
    """Reference stepper: coin then shift on the whole dense window, per axis."""
    amps = state.amps
    for _ in range(t):
        for q in (1, 2):
            c = model.coin_matrix(q)
            a0, a1 = amps[0], amps[1]
            n1, n2 = a0.shape
            new0 = c[0, 0] * a0 + c[0, 1] * a1
            new1 = c[1, 0] * a0 + c[1, 1] * a1
            # component 1 moves to x - e_q, component 2 to x + e_q
            if q == 1:
                amps = np.zeros((2, n1 + 2, n2), dtype=np.complex128)
                amps[0, :n1], amps[1, 2:] = new0, new1
            else:
                amps = np.zeros((2, n1, n2 + 2), dtype=np.complex128)
                amps[0, :, :n2], amps[1, :, 2:] = new0, new1
    return lattice.LatticeState(amps=amps, x1_min=state.x1_min - t,
                                x2_min=state.x2_min - t, time=state.time + t)


def assert_same_state(got, want):
    assert (got.x1_min, got.x1_max, got.x2_min, got.x2_max, got.time) == (
        want.x1_min, want.x1_max, want.x2_min, want.x2_max, want.time)
    assert np.array_equal(got.amps, want.amps)


@pytest.fixture
def origin_state():
    return lattice.initial_state_delta(np.array([1.0, 0.0]))


def test_delta_state_requires_unit_norm():
    with pytest.raises(ValueError):
        lattice.initial_state_delta(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        lattice.initial_state_delta(np.array([1.0, 0.0, 0.0]))


def test_single_step_hadamard_corners(degenerate_model, origin_state):
    dist = lattice.position_distribution(
        lattice.evolve(degenerate_model, origin_state, 1))
    got = dict(dist.items())
    assert set(got) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    for p in got.values():
        assert p == pytest.approx(0.25, abs=1e-14)


def test_single_step_hand_computed(phased_model):
    psi = np.array([0.6, 0.8j])
    c1, c2 = phased_model.coin_matrix(1), phased_model.coin_matrix(2)
    u = c1 @ psi
    expected = {
        (-1, -1): [c2[0, 0] * u[0], 0],
        (-1, 1): [0, c2[1, 0] * u[0]],
        (1, -1): [c2[0, 1] * u[1], 0],
        (1, 1): [0, c2[1, 1] * u[1]],
    }
    state = lattice.step(phased_model, lattice.initial_state_delta(psi))
    assert (state.x1_min, state.x1_max, state.x2_min, state.x2_max, state.time) == (-1, 1, -1, 1, 1)
    for x1 in range(state.x1_min, state.x1_max + 1):
        for x2 in range(state.x2_min, state.x2_max + 1):
            got = state.amplitude(x1, x2)
            if (x1, x2) in expected:
                np.testing.assert_allclose(got, expected[x1, x2], rtol=0, atol=1e-15)
            else:
                assert not np.any(got)


def test_norm_conserved_under_phases(phased_model, origin_state):
    final = lattice.evolve(phased_model, origin_state, 50)
    assert final.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert final.time == 50


def test_evolve_rejects_negative(reference_model, origin_state):
    with pytest.raises(ValueError):
        lattice.evolve(reference_model, origin_state, -1)


def test_window_growth(reference_model, origin_state):
    final = lattice.evolve(reference_model, origin_state, 7)
    assert (final.x1_min, final.x1_max) == (-7, 7)
    assert (final.x2_min, final.x2_max) == (-7, 7)


def test_multi_site_initial_state():
    state = lattice.initial_state_from_sites({
        (0, 0): (0.6, 0.0),
        (2, -1): (0.0, 0.8),
    })
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-14)
    assert state.amplitude(2, -1)[1] == pytest.approx(0.8)
    assert state.amplitude(1, 0)[0] == 0.0


def test_moments_single_step(degenerate_model, origin_state):
    dist = lattice.position_distribution(
        lattice.evolve(degenerate_model, origin_state, 1))
    mom = lattice.moments(dist)
    assert np.allclose(mom.mean, 0.0, atol=1e-12)
    assert mom.second[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert mom.second[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert mom.second[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_moments_need_time(origin_state):
    with pytest.raises(ValueError):
        lattice.moments(lattice.position_distribution(origin_state))


def test_ballistic_spread(reference_model, origin_state):
    # second moment in velocity units stabilises instead of decaying like 1/t
    m20 = lattice.moments(lattice.position_distribution(
        lattice.evolve(reference_model, origin_state, 20)))
    m40 = lattice.moments(lattice.position_distribution(
        lattice.evolve(reference_model, origin_state, 40)))
    assert m40.second[0, 0] > 0.5 * m20.second[0, 0]
    assert m20.second[0, 0] > 0.01


def test_distribution_csv_roundtrip(tmp_path, degenerate_model, origin_state):
    dist = lattice.position_distribution(
        lattice.evolve(degenerate_model, origin_state, 1))
    path = tmp_path / "dist.csv"
    lattice.write_distribution_csv(dist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    total = sum(float(r[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-14)


def test_state_binary_roundtrip(tmp_path, phased_model, origin_state):
    state = lattice.evolve(phased_model, origin_state, 9)
    path = tmp_path / "state.bin"
    lattice.write_state_binary(state, path)
    back = lattice.read_state_binary(path, time=9)
    assert back.x1_min == state.x1_min and back.x2_min == state.x2_min
    assert back.time == 9
    assert np.array_equal(back.amps, state.amps)


STARTS = pytest.mark.parametrize("start", [
    lattice.initial_state_delta(np.array([0.6, 0.8j])),
    # one site in each of the four parity classes of the window
    lattice.initial_state_from_sites({
        (0, 0): (0.3, 0.2j),
        (1, 0): (0.1 - 0.4j, 0.5),
        (0, 3): (0.4j, -0.3),
        (3, 1): (0.2, 0.55 + 0.1j),
    }),
], ids=["delta", "four_classes"])


@pytest.mark.parametrize("t", [0, 1, 2, 7, 40])
@STARTS
def test_evolve_matches_dense_reference(phased_model, start, t):
    assert_same_state(lattice.evolve(phased_model, start, t),
                      dense_evolve(phased_model, start, t))


@STARTS
@pytest.mark.parametrize("coin", ["reference_model", "phased_model"])
def test_trajectory_matches_one_shot_evolve(coin, start, request):
    # chained evolve equals one-shot evolve bit for bit, zero sign bits included
    model = request.getfixturevalue(coin)
    times = [40, 0, 13, 40, 2, 13]
    snaps = list(lattice.trajectory(model, start, times))
    assert [s.time for s in snaps] == sorted(times)
    assert snaps[0] is start
    for t, got in zip(sorted(times), snaps):
        want = lattice.evolve(model, start, t)
        assert (got.x1_min, got.x2_min, got.time) == (want.x1_min, want.x2_min, want.time)
        assert np.array_equal(got.amps.view(np.int64), want.amps.view(np.int64))


def test_trajectory_rejects_negative_time(reference_model, origin_state):
    with pytest.raises(ValueError):
        list(lattice.trajectory(reference_model, origin_state, [3, -1]))


unit = st.floats(0.01, 0.99)
phase = st.floats(-np.pi, np.pi)
amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False)
spinor = st.tuples(amp, amp)
site = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(unit, unit, st.lists(phase, min_size=6, max_size=6),
       st.dictionaries(site, spinor, min_size=1, max_size=6), st.integers(0, 12))
def test_evolve_matches_dense_reference_property(a1_sq, a2_sq, phases, sites, t):
    model = build_model(CoinParameters.from_squared_moduli(a1_sq, a2_sq, *phases))
    start = lattice.initial_state_from_sites(sites)
    got = lattice.evolve(model, start, t)
    assert_same_state(got, dense_evolve(model, start, t))
    assert abs(got.norm_sq() - start.norm_sq()) <= 1e-12


def test_read_state_binary_rejects_malformed(tmp_path, phased_model, origin_state):
    path = tmp_path / "state.bin"
    lattice.write_state_binary(lattice.evolve(phased_model, origin_state, 3), path)
    raw = path.read_bytes()
    for bad in (raw[:10], raw[:-8], raw + b"\0" * 32,
                np.array([2, 1, 0, 0], dtype="<i4").tobytes() + raw[16:]):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            lattice.read_state_binary(path)
