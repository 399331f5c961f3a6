import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altwalk import lattice
from altwalk.model import Model
from oracles import (
    amplitude,
    dense_distribution,
    nonzero_sites,
    per_site_distribution_csv,
    strided_class_evolve,
    whole_window_norm_sq,
    whole_window_probs,
    x1_max,
    x2_max,
)


@dataclass
class DenseState:
    """A walker state as the reference stepper holds it: the whole (2, n1, n2) window."""

    amps: np.ndarray
    x1_min: int
    x2_min: int
    time: int

    @property
    def shape(self):
        return self.amps.shape[1:]


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
    return DenseState(amps, state.x1_min - t, state.x2_min - t, state.time + t)


def csv_bytes(dist):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "distribution.csv"
        lattice.write_distribution_csv(dist, path)
        return path.read_bytes()


def assert_same_state(got, want):
    """A class-backed state against the dense reference, on every reading of a state.

    Amplitudes compare by value: the dense stepper may leave -0.0 where a class
    that is not stored reads +0.0.  Everything squared compares bit for bit.
    """
    assert (got.x1_min, got.x2_min, got.shape, got.time) == (
        want.x1_min, want.x2_min, want.shape, want.time)
    dense = want.amps
    assert np.array_equal(got.amps, dense)
    for x1 in range(got.x1_min - 1, x1_max(got) + 2):
        for x2 in range(got.x2_min - 1, x2_max(got) + 2):
            if want.x1_min <= x1 <= x1_max(want) and want.x2_min <= x2 <= x2_max(want):
                site = dense[:, x1 - want.x1_min, x2 - want.x2_min]
            else:
                site = np.zeros(2)
            assert np.array_equal(amplitude(got, x1, x2), site)
    assert got.norm_sq() == whole_window_norm_sq(want)
    dist, want_dist = lattice.position_distribution(got), dense_distribution(want)
    assert np.array_equal(dist.probs.view(np.int64), want_dist.probs.view(np.int64))
    assert dist.total() == want_dist.total()
    for cells in (1, 3 * dist.shape[1] + 1, 10**9):  # a row, three rows, the whole window
        blocks, want_blocks = list(dist.blocks(cells)), list(want_dist.blocks(cells))
        assert [x1 for x1, _ in blocks] == [x1 for x1, _ in want_blocks]
        for (_, rows), (_, want_rows) in zip(blocks, want_blocks):
            assert np.array_equal(rows.view(np.int64), want_rows.view(np.int64))
    assert csv_bytes(dist) == csv_bytes(want_dist)
    if got.time > 0:
        mom, want_mom = lattice.moments(dist), lattice.moments(want_dist)
        assert np.array_equal(mom.mean.view(np.int64), want_mom.mean.view(np.int64))
        assert np.array_equal(mom.second.view(np.int64), want_mom.second.view(np.int64))


@pytest.fixture
def origin_state():
    return lattice.initial_state_delta(np.array([1.0, 0.0]))


def test_delta_state_requires_unit_norm():
    with pytest.raises(ValueError):
        lattice.initial_state_delta(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        lattice.initial_state_delta(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("spinor", [[np.nan, 0.0], [complex(0.6, np.nan), 0.8],
                                    [np.inf, 0.0], [0.0, -np.inf]])
def test_delta_state_refuses_a_non_finite_spinor(spinor):
    # a NaN norm compares False against any bound, so the check must require the
    # norm to be within 1e-12 of 1 rather than refuse one that is not
    with pytest.raises(ValueError, match="unit norm"):
        lattice.initial_state_delta(np.array(spinor))


def test_single_step_hadamard_corners(degenerate_model, origin_state):
    dist = lattice.position_distribution(
        lattice.evolve(degenerate_model, origin_state, 1))
    got = dict(nonzero_sites(dist))
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
    state = lattice.evolve(phased_model, lattice.initial_state_delta(psi), 1)
    assert (state.x1_min, x1_max(state), state.x2_min, x2_max(state), state.time) == (
        -1, 1, -1, 1, 1)
    for x1 in range(state.x1_min, x1_max(state) + 1):
        for x2 in range(state.x2_min, x2_max(state) + 1):
            got = amplitude(state, x1, x2)
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
    assert (final.x1_min, x1_max(final)) == (-7, 7)
    assert (final.x2_min, x2_max(final)) == (-7, 7)


def test_multi_site_initial_state():
    # (1, 1) holds the only site of its parity class, with a zero spinor
    state = lattice.initial_state_from_sites({
        (0, 0): (0.6, 0.0),
        (2, -1): (0.0, 0.8),
        (1, 1): (0.0, 0.0),
    })
    assert (state.x1_min, x1_max(state), state.x2_min, x2_max(state)) == (0, 2, -1, 1)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-14)
    assert amplitude(state, 2, -1)[1] == pytest.approx(0.8)
    assert amplitude(state, 1, 0)[0] == 0.0
    assert not np.any(amplitude(state, 1, 1))


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


STARTS = pytest.mark.parametrize("start", [
    lattice.initial_state_delta(np.array([0.6, 0.8j])),
    # two sites of one parity class and one of another
    lattice.initial_state_from_sites({
        (0, 0): (0.3, 0.2j),
        (2, -2): (0.4j, -0.3),
        (1, 0): (0.1 - 0.4j, 0.5),
    }),
    # three of the four parity classes of the window
    lattice.initial_state_from_sites({
        (0, 0): (0.3, 0.2j),
        (1, 0): (0.1 - 0.4j, 0.5),
        (0, 3): (0.4j, -0.3),
    }),
    # one site in each of the four parity classes of the window
    lattice.initial_state_from_sites({
        (0, 0): (0.3, 0.2j),
        (1, 0): (0.1 - 0.4j, 0.5),
        (0, 3): (0.4j, -0.3),
        (3, 1): (0.2, 0.55 + 0.1j),
    }),
    # the parity class of (1, 0) and (-1, 2) holds only zero spinors
    lattice.initial_state_from_sites({
        (0, 0): (0.6, 0.0),
        (1, 0): (0.0, 0.0),
        (2, 1): (0.0, -0.8j),
        (-1, 2): (0.0, 0.0),
    }),
], ids=["delta", "two_classes", "three_classes", "four_classes", "zero_classes"])


@pytest.mark.parametrize("t", [0, 1, 2, 7, 15, 16, 17, 33, 40])
@STARTS
def test_evolve_matches_dense_reference(phased_model, start, t):
    assert_same_state(lattice.evolve(phased_model, start, t),
                      dense_evolve(phased_model, start, t))


def assert_same_classes(got, want):
    """Every stored class of two states bit for bit, signed zeros included."""
    assert (got.x1_min, got.x2_min, got.shape, got.time) == (
        want.x1_min, want.x2_min, want.shape, want.time)
    assert [(p, q) for p, q, _ in got.classes] == [(p, q) for p, q, _ in want.classes]
    for (_, _, amps), (_, _, want_amps) in zip(got.classes, want.classes):
        assert amps.shape == want_amps.shape
        assert np.array_equal(amps.view(np.int64), want_amps.view(np.int64))


@pytest.fixture(scope="module")
def gap_signing_model():
    return Model(0.7, 0.33, alpha2=-3.0, beta2=-3.0)


@pytest.mark.parametrize("coin, row", [("phased_model", 1), ("gap_signing_model", 0)])
def test_coin_2_signs_the_gap_zeros(coin, row, request):
    # row ``row`` of coin 2 turns the gap's zeros into -0.0, which the axis-2 shift
    # carries into the new edge column of component row + 1 unless evolve zeroes it
    c2, zero = request.getfixturevalue(coin).coin_matrix(2), np.zeros(1, dtype=np.complex128)
    assert np.signbit((c2[row, 0] * zero + c2[row, 1] * zero).view(np.float64)).any()


@pytest.mark.parametrize("t", [0, 1, 15, 16, 17, 33, 64, 100])
@STARTS
@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "gap_signing_model"])
def test_evolve_matches_strided_class_stepper(coin, start, t, request):
    # t = 15, 16 and 17 end one step before, at and after a re-lay, and 33 and 64 cross
    # several; from t = 100 a half step covers more than one chunk of cells
    model = request.getfixturevalue(coin)
    assert_same_classes(lattice.evolve(model, start, t), strided_class_evolve(model, start, t))


@STARTS
@pytest.mark.parametrize("coin", ["reference_model", "phased_model"])
def test_trajectory_restarts_from_class_views(coin, start, request):
    # 21 lies inside the second block of a one-shot 40-step evolve; each snapshot is
    # fed back into evolve as the strided view of a wider buffer that evolve returned
    model = request.getfixturevalue(coin)
    times = [5, 21, 40]
    for t, snap in zip(times, lattice.trajectory(model, start, times)):
        assert all(not amps.flags.c_contiguous for _, _, amps in snap.classes)
        assert_same_classes(snap, strided_class_evolve(model, start, t))
        assert_same_classes(snap, lattice.evolve(model, start, t))


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


@STARTS
def test_squares_in_place_match_reference(phased_model, start):
    # |a|^2 squared in place: the same norm and probabilities, bit for bit, each class
    # into a float64 array of its own
    state = lattice.evolve(phased_model, start, 40)
    assert state.norm_sq() == whole_window_norm_sq(state)
    dist = lattice.position_distribution(state)
    assert [(p, q, probs.shape) for p, q, probs in dist.classes] == [
        (p, q, amps.shape[1:]) for p, q, amps in state.classes]
    assert all(probs.dtype == np.float64 and probs.flags.c_contiguous
               for _, _, probs in dist.classes)
    assert np.array_equal(dist.probs.view(np.int64), whole_window_probs(state).view(np.int64))


def test_trajectory_rejects_negative_time(reference_model, origin_state):
    with pytest.raises(ValueError):
        list(lattice.trajectory(reference_model, origin_state, [3, -1]))


unit = st.floats(0.01, 0.99)
phase = st.floats(-np.pi, np.pi)
amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False)
spinor = st.one_of(st.just((0j, 0j)), st.tuples(amp, amp))
site = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(unit, unit, st.lists(phase, min_size=6, max_size=6),
       st.dictionaries(site, spinor, min_size=1, max_size=6), st.integers(0, 40))
def test_evolve_matches_dense_reference_property(a1_sq, a2_sq, phases, sites, t):
    # zero to four occupied parity classes, zero spinors and t = 0 included
    model = Model(a1_sq, a2_sq, *phases)
    start = lattice.initial_state_from_sites(sites)
    assert_same_state(start, DenseState(start.amps, start.x1_min, start.x2_min, 0))
    got = lattice.evolve(model, start, t)
    assert_same_state(got, dense_evolve(model, start, t))
    assert abs(got.norm_sq() - start.norm_sq()) <= 1e-12
    times = [t // 2, t]
    for u, snap in zip(times, lattice.trajectory(model, start, times)):
        assert_same_state(snap, dense_evolve(model, start, u))


@settings(max_examples=50, deadline=None)
@given(unit, unit, st.lists(phase, min_size=6, max_size=6),
       st.lists(st.tuples(site, spinor), min_size=2, max_size=4,
                unique_by=lambda s: (s[0][0] % 2, s[0][1] % 2)),
       st.integers(0, 40))
@example(0.7, 0.33, [0.0, 0.0, 0.0, 0.0, -3.0, -3.0],
         [((0, 0), (0.6, 0j)), ((3, 1), (0j, 0.8j)), ((1, 0), (0.5, 0.5j)), ((2, -3), (-0.3, 0.1))],
         17)
def test_parity_classes_never_interfere(a1_sq, a2_sq, phases, sites, t):
    # sites in distinct parity classes evolve on disjoint sublattices: the distribution
    # of the whole start is the sum of its one-site parts, bit for bit
    model = Model(a1_sq, a2_sq, *phases)
    whole = lattice.position_distribution(
        lattice.evolve(model, lattice.initial_state_from_sites(dict(sites)), t))
    parts = np.zeros_like(whole.probs)
    for x, amps in sites:
        part = lattice.position_distribution(
            lattice.evolve(model, lattice.initial_state_from_sites({x: amps}), t))
        i, j = part.x1_min - whole.x1_min, part.x2_min - whole.x2_min
        n1, n2 = part.shape
        parts[i:i + n1, j:j + n2] += part.probs
    assert np.array_equal(whole.probs.view(np.int64), parts.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300_000), st.sampled_from([np.float64, np.complex128]),
       st.integers(1, 4), st.lists(st.floats(0.0, 1.0), max_size=12), st.integers(0, 2**32 - 1))
@example(300_000, np.complex128, 4, [0.0, 0.5, 0.5, 1.0], 0)  # empty pieces at both ends
@example(129, np.float64, 1, [64 / 129], 1)  # one numpy leaf on each side of the cut
def test_pairwise_sum_keeps_np_sum_bits(n, dtype, series, cuts, seed):
    # any cut of the run into (series, m) pieces, empty ones too, sums as one np.sum per
    # series; values of many magnitudes and signed zeros, compared bit for bit
    rng = np.random.default_rng(seed)
    run = np.ldexp(rng.standard_normal((series, n)), rng.integers(-60, 60, (series, n)))
    if dtype is np.complex128:
        run = run + 1j * np.ldexp(rng.standard_normal((series, n)), rng.integers(-60, 60, (series, n)))
    run[rng.random((series, n)) < 0.1] = -0.0
    bounds = [0, *sorted(round(c * n) for c in cuts), n]
    pieces = (run[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
    got = lattice._pairwise_sum(n, dtype, pieces)
    want = np.array([np.sum(row) for row in run])
    assert got.dtype == dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=50, deadline=None)
@given(unit, unit, st.lists(phase, min_size=6, max_size=6),
       st.one_of(st.dictionaries(site, spinor, min_size=1, max_size=1),
                 st.dictionaries(site, spinor, min_size=2, max_size=6)),
       st.integers(0, 40), st.sampled_from([128, 1000]))
def test_norm_sq_sums_small_pieces_in_numpy_order(a1_sq, a2_sq, phases, sites, t, piece):
    # pieces far below the window's size split it many times, on one class or several;
    # the distribution's total too, and the blocks of rows it squares
    state = lattice.evolve(Model(a1_sq, a2_sq, *phases), lattice.initial_state_from_sites(sites), t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SUM_PIECE", piece)
        assert state.norm_sq() == whole_window_norm_sq(state)
        dist = lattice.position_distribution(state)
        assert dist.total() == float(whole_window_probs(state).sum())
        assert np.array_equal(dist.probs.view(np.int64), whole_window_probs(state).view(np.int64))


@STARTS
def test_norm_sq_at_t200_splits_and_keeps_the_bits(phased_model, start):
    # every start's window at T = 200 holds at least (2, 401, 401) cells: several pieces
    state = lattice.evolve(phased_model, start, 200)
    assert 2 * np.prod(state.shape) > 4 * lattice._SUM_PIECE
    assert state.norm_sq() == whole_window_norm_sq(state)
    assert lattice.position_distribution(state).total() == float(whole_window_probs(state).sum())


def test_norm_sq_never_builds_the_dense_window(reference_model):
    # one piece's window cells and their squares, and the rows' ends around them
    state = lattice.evolve(reference_model, lattice.initial_state_delta(np.array([0.6, 0.8j])), 200)
    tracemalloc.start()
    try:
        norm = state.norm_sq()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norm == pytest.approx(1.0, abs=1e-12)
    piece = lattice._SUM_PIECE * (np.dtype(np.complex128).itemsize + np.dtype(np.float64).itemsize)
    assert peak < piece + 64 * 1024


def test_position_distribution_squares_one_component_aside(reference_model, monkeypatch):
    # the class squares into a float64 array of its own, a quarter of the (401, 401)
    # window, which is never built; component 1 squares in place and only one block of
    # rows of component 2 (20 of 201 rows at this piece size) takes a temporary, plus
    # numpy's buffers for a strided call: three operands of bufsize cells
    state = lattice.evolve(reference_model, lattice.initial_state_delta(np.array([0.6, 0.8j])), 200)
    monkeypatch.setattr(lattice, "_SUM_PIECE", 1 << 12)
    tracemalloc.start()
    try:
        dist = lattice.position_distribution(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (_, _, probs), = dist.classes
    assert probs.shape == (201, 201) and dist.shape == (401, 401)
    block = lattice._SUM_PIECE // probs.shape[1] * probs.shape[1] * probs.itemsize
    buffers = 3 * np.getbufsize() * probs.itemsize
    assert block + buffers < probs.nbytes  # so a second class-sized array shows
    assert peak < probs.nbytes + block + buffers


def test_evolve_never_builds_the_dense_window(reference_model):
    # from one site only one parity class of the (2, 401, 401) complex window is
    # ever occupied; stepping it and squaring it stays well below the window's size
    t = 200
    dense_bytes = 2 * (2 * t + 1) ** 2 * np.dtype(np.complex128).itemsize
    start = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    tracemalloc.start()
    try:
        dist = lattice.position_distribution(lattice.evolve(reference_model, start, t))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.probs.shape == (2 * t + 1, 2 * t + 1)
    assert peak < 0.75 * dense_bytes


def test_evolve_steps_each_class_in_place(reference_model):
    # one buffer for the class and the chunk scratch: a second class-sized array (a
    # scratch buffer to shift into, or a re-lay through a copy) would add 1.3 MB at t = 200
    t = 200
    start = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    tracemalloc.start()
    try:
        state = lattice.evolve(reference_model, start, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (_, _, amps), = state.classes
    assert amps.shape == (2, t + 1, t + 1)
    # t + 1 rows at a stride of t + 2, plus the cell the axis-2 shift reaches past them
    assert amps.base.shape == (2, (t + 1) * (t + 2) + 1)
    # four chunks of coin products, then one re-lay chunk of both components copied aside
    # or numpy's buffers for a call short enough to fit them: three operands of bufsize cells
    chunks = 4 * lattice._CHUNK + max(2 * lattice._CHUNK, 3 * np.getbufsize())
    scratch = chunks * np.dtype(np.complex128).itemsize
    assert peak <= amps.base.nbytes + scratch + 64 * 1024


def _assert_distribution_csv_matches_per_site(tmp_path, dist):
    lattice.write_distribution_csv(dist, tmp_path / "rows.csv")
    per_site_distribution_csv(dist, tmp_path / "sites.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "sites.csv").read_bytes()


@pytest.mark.parametrize("steps", [0, 1, 6, 25])
@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_distribution_csv_matches_per_site_writer(coin, steps, request, tmp_path):
    state = lattice.initial_state_delta(np.array([0.6, 0.8j]))
    final = lattice.evolve(request.getfixturevalue(coin), state, steps)
    _assert_distribution_csv_matches_per_site(tmp_path, lattice.position_distribution(final))


@pytest.mark.parametrize("steps", [0, 3])
def test_distribution_csv_skips_zero_rows(phased_model, steps, tmp_path):
    # rows x1 = 1 and 2 of the start window hold no amplitude
    state = lattice.initial_state_from_sites({(0, 0): (0.6, 0.0), (3, 1): (0.0, 0.8j)})
    dist = lattice.position_distribution(lattice.evolve(phased_model, state, steps))
    assert not dist.probs.any(axis=1).all()
    _assert_distribution_csv_matches_per_site(tmp_path, dist)
    if steps == 0:
        assert (tmp_path / "rows.csv").read_text().splitlines()[1:] == [
            "0,0,0.35999999999999999", "3,1,0.64000000000000012"]
