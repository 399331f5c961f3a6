import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altwalk import lattice, limit, spectral
from altwalk.model import Model
from oracles import (
    PhaseProductSpectrum,
    amplitude,
    bloch_vector,
    complex_exp_bloch_entries,
    eigenvalues,
    kgrid_moments,
    konno_cos,
    own_tau_band_weights,
    per_xi_char_function,
    stokes_vector,
    x1_max,
    x2_max,
)


def _rand_k(rng, n):
    return rng.uniform(-math.pi, math.pi, size=n), rng.uniform(-math.pi, math.pi, size=n)


def _bloch_matrices(model, k1, k2):
    """U(k) as an array of 2x2 matrices, one per wavenumber."""
    m11, m12, m21, m22 = spectral._bloch_entries(model, k1, k2)
    return np.stack([np.stack([m11, m12], -1), np.stack([m21, m22], -1)], -2)


def test_bloch_matrix_unitary(phased_model):
    rng = np.random.default_rng(3)
    m = _bloch_matrices(phased_model, *_rand_k(rng, 20))
    assert np.allclose(m @ m.conj().transpose(0, 2, 1), np.eye(2), atol=1e-13)


# signed zeros, odd multiples of pi and subnormals next to the random wavenumbers
_EDGE_K = np.array([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                    1e-300, -1e-300, 5e-324, -5e-324])


def _same_bits(got, want):
    if np.shape(got) != np.shape(want):
        return False
    got, want = np.atleast_1d(got), np.atleast_1d(want)  # a 0-d array has no int64 view
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_bloch_entries_have_the_bits_of_the_complex_exp(coin, request):
    model = request.getfixturevalue(coin)
    k1, k2 = _rand_k(np.random.default_rng(21), 4000)
    k1 = np.concatenate([k1, np.repeat(_EDGE_K, _EDGE_K.size)])  # every pair of edge values
    k2 = np.concatenate([k2, np.tile(_EDGE_K, _EDGE_K.size)])
    assert _same_bits(spectral._expi(k1), np.exp(1j * k1))  # -0.0 included
    # flat arrays, a quadrature-style broadcast grid and scalars
    for args in ((k1, k2), (k1[:64, None], k2[None, -64:]), (float(k1[0]), -0.0)):
        for got, want in zip(spectral._bloch_entries(model, *args),
                             complex_exp_bloch_entries(model, *args)):
            assert _same_bits(got, want)


def test_eigenvalues_unimodular_and_product(phased_model):
    rng = np.random.default_rng(4)
    k1, k2 = _rand_k(rng, 500)
    lam1, lam2 = eigenvalues(phased_model, k1, k2)
    assert np.abs(np.abs(lam1) - 1.0).max() < 1e-13
    assert np.abs(np.abs(lam2) - 1.0).max() < 1e-13
    delta = phased_model.derived.delta
    assert np.abs(lam1 * lam2 - np.exp(1j * delta)).max() < 1e-12


def test_degenerate_point_raises(degenerate_model):
    # tau = +-1 closes the gap at specific wavenumbers of the balanced coin
    k1, k2 = -math.pi / 2, math.pi / 2
    tau = float(spectral.angle_terms(degenerate_model, k1, k2)[6])
    assert 1.0 - tau * tau <= spectral.DEGENERATE_GAP_TOL
    with pytest.raises(limit.OutsideSupportError):
        limit.jacobian_forward(degenerate_model, k1, k2)


def test_group_velocity_matches_fd(reference_model, phased_model):
    h = 1e-6
    rng = np.random.default_rng(6)
    for model in (reference_model, phased_model):
        k1, k2 = _rand_k(rng, 200)
        for p in (1, 2):
            v1 = (1.0, -1.0)[p - 1] * spectral.group_velocity(model, k1, k2)[0]
            lam_p = eigenvalues(model, k1 + h, k2)[p - 1]
            lam_m = eigenvalues(model, k1 - h, k2)[p - 1]
            fd = -np.angle(lam_p * np.conj(lam_m)) / (2 * h)
            assert np.abs(v1 - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_fourier_initial_phase_convention():
    state = lattice.initial_state_from_sites({(1, 0): (1.0, 0.0)})
    spectrum = spectral.fourier_initial(state)
    k1, k2 = 0.7, -0.3
    got = spectrum(k1, k2)
    # hat psi(k) = sum_x e^{-i k.x} psi(x)
    assert got[0] == pytest.approx(np.exp(-1j * k1), abs=1e-14)
    assert got[1] == 0.0


def test_parseval_on_grid():
    state = lattice.initial_state_from_sites({
        (0, 0): (0.5, 0.5j),
        (1, 2): (0.5, 0.0),
        (-1, 0): (0.0, 0.5),
    })
    spectrum = spectral.fourier_initial(state)
    n = 64
    g = -math.pi + 2 * math.pi * np.arange(n) / n
    k1, k2 = np.meshgrid(g, g, indexing="ij")
    vals = spectrum(k1, k2)
    mean_norm = float(np.mean(np.sum(np.abs(vals) ** 2, axis=-1)))
    assert mean_norm == pytest.approx(state.norm_sq(), abs=1e-13)


@pytest.mark.parametrize("n", [1, 128, 200, 333, 512])
def test_wavenumber_grid_is_one_broadcast_pair(n):
    col, row = spectral._wavenumber_grid(n)
    assert col.shape == (n, 1) and row.shape == (1, n)
    assert np.array_equal(col.ravel(), row.ravel()) and col[0, 0] == -math.pi
    # verify.check_support's own expression before it took this grid: the same bits
    # when n is a power of two, within two ulps of 2 pi otherwise (n < 3000 reach two)
    own = -math.pi + 2.0 * math.pi * np.arange(n) / n
    if n & (n - 1) == 0:
        assert np.array_equal(row.ravel(), own)
    assert np.abs(row.ravel() - own).max() <= 2.0 * np.spacing(2.0 * math.pi)


def test_band_weights_sum_to_norm(reference_model):
    state = lattice.initial_state_delta(np.array([1.0, 1.0j]) / math.sqrt(2))
    spectrum = spectral.fourier_initial(state)
    rng = np.random.default_rng(8)
    k1, k2 = _rand_k(rng, 50)
    tau = spectral.angle_terms(reference_model, k1, k2)[6]
    w1, w2 = spectral.band_weights(reference_model, spectrum, k1, k2, tau)
    assert np.abs(w1 + w2 - 1.0).max() < 1e-12
    assert w1.min() > -1e-12 and w2.min() > -1e-12


def test_spectral_reconstruct_matches_evolution(phased_model):
    state = lattice.initial_state_from_sites({
        (0, 0): (0.8, 0.0),
        (1, -2): (0.0, 0.6),
    })
    t = 6
    direct = lattice.evolve(phased_model, state, t)
    recon = spectral.spectral_reconstruct(phased_model, state, t)
    assert recon.time == t
    # compare over the union of both windows
    for x1 in range(direct.x1_min - 1, x1_max(direct) + 2):
        for x2 in range(direct.x2_min - 1, x2_max(direct) + 2):
            assert np.allclose(
                amplitude(direct, x1, x2), amplitude(recon, x1, x2), atol=1e-12)


CROSSING_START = {(0, 0): (0.6, 0.0), (1, 1): (0.0, 0.8)}


@pytest.mark.parametrize("t", [1, 3, 5])
def test_spectral_reconstruct_through_band_crossing(degenerate_model, t):
    # the 4 x 4, 8 x 8 and 12 x 12 wavenumber grids hold k = (pi/2, pi/2), where
    # the bands of the (0.5, 0.5) coin cross and U(k) is a multiple of the identity
    assert abs(spectral.angle_terms(degenerate_model, math.pi / 2, math.pi / 2)[6]) >= 1.0
    start = lattice.initial_state_from_sites(CROSSING_START)
    want = lattice.evolve(degenerate_model, start, t)
    got = spectral.spectral_reconstruct(degenerate_model, start, t)
    assert np.abs(got.amps - want.amps).max() <= 1e-12


unit = st.floats(0.01, 0.99)
moduli = st.one_of(unit.map(lambda x: (x, x)), st.tuples(unit, unit))  # equal: a + b = 1
phase = st.floats(-math.pi, math.pi)
amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False)
site = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(moduli, st.lists(phase, min_size=6, max_size=6),
       st.dictionaries(site, st.tuples(amp, amp), min_size=1, max_size=3), st.integers(0, 8))
@example((0.5, 0.5), [0.0] * 6, CROSSING_START, 3)
def test_spectral_reconstruct_matches_evolve_property(moduli, phases, sites, t):
    # lattice = spectral over the whole window, degenerate coins and crossings included
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values()))
    assume(norm > 1e-3)
    start = lattice.initial_state_from_sites(
        {x: (a / norm, b / norm) for x, (a, b) in sites.items()})
    model = Model(*moduli, *phases)
    want = lattice.evolve(model, start, t)
    got = spectral.spectral_reconstruct(model, start, t)
    assert (got.x1_min, got.x2_min, got.shape) == (want.x1_min, want.x2_min, want.shape)
    assert np.abs(got.amps - want.amps).max() <= 1e-12


@pytest.mark.xfail(strict=True, reason="spectral._propagated divides by lam1 - lam2, about 2e-8 "
                   "at the grid point k = 0, 1e-8 from a band crossing: 5.56e-10 off evolve")
def test_spectral_reconstruct_next_to_a_band_crossing():
    # a coin of the property test's domain that hypothesis can draw: beta1 the largest
    # double below pi and beta2 = 1e-8 put k = 0 of the grid 1e-8 from a crossing
    model = Model(0.5, 0.5, 0.0, 0.0, math.nextafter(math.pi, 0.0), 1e-8)
    start = lattice.initial_state_from_sites({(0, 0): (0.0, 1.0)})
    got = spectral.spectral_reconstruct(model, start, 1)
    assert np.abs(got.amps - lattice.evolve(model, start, 1).amps).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(moduli, st.lists(phase, min_size=6, max_size=6),
       st.dictionaries(site, st.tuples(amp, amp), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
@example((0.9, 0.1), [0.0] * 6, {(0, 0): (1.0, 0.0)}, 0)
def test_band_weights_are_the_bloch_form(moduli, phases, sites, seed):
    # P_1,2 = (|psi_hat_0|^2 +- s.n)/2 with the Stokes vector s of psi_hat_0(k) and
    # the band-1 Bloch vector n(k); over 3,000 random coins (half with equal moduli)
    # and starts of one to three sites, 2,000 k each, the two agreed to 9.3e-14 of
    # max |psi_hat_0|^2, and to 3.7e-14 on unequal moduli, whose bands never cross
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values()))
    assume(norm > 1e-3)
    model = Model(*moduli, *phases)
    spectrum = spectral.InitialSpectrum(
        sites=np.array(list(sites), dtype=np.int64),
        amps=np.array(list(sites.values()), dtype=np.complex128) / norm)
    k1, k2 = _rand_k(np.random.default_rng(seed), 2000)
    w1, w2 = spectral.band_weights(model, spectrum, k1, k2, spectral.angle_terms(model, k1, k2)[6])
    psi = spectrum(k1, k2)
    nrm = np.sum(np.abs(psi) ** 2, axis=-1)
    sn = sum(si * ni for si, ni in zip(stokes_vector(model, psi), bloch_vector(model, k1, k2)))
    scale = nrm.max()
    assert np.abs(w1 - 0.5 * (nrm + sn)).max() <= 1e-12 * scale
    assert np.abs(w2 - 0.5 * (nrm - sn)).max() <= 1e-12 * scale


def test_spectral_evolve_is_phase_multiplication(reference_model):
    state = lattice.initial_state_delta(np.array([1.0, 0.0]))
    spectrum = spectral.fourier_initial(state)
    k1 = np.array([0.3]); k2 = np.array([-1.1])
    t = 5
    out = np.stack(spectral._propagated(reference_model, spectrum, t, k1, k2), axis=-1)
    m = _bloch_matrices(reference_model, k1, k2)[0]
    expect = np.linalg.matrix_power(m, t) @ spectrum(float(k1[0]), float(k2[0]))
    assert np.allclose(out[0], expect, atol=1e-12)


def test_char_function_at_zero(reference_model):
    state = lattice.initial_state_delta(np.array([1.0, 0.0]))
    spectrum = spectral.fourier_initial(state)
    [val], _ = spectral.numeric_char_function(reference_model, spectrum, [(0.0, 0.0)], 64)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_char_function_skips_crossings(degenerate_model):
    state = lattice.initial_state_delta(np.array([1.0, 0.0]))
    spectrum = spectral.fourier_initial(state)
    # the 64-point centred grid contains the gap-closing wavenumbers
    [val], skipped = spectral.numeric_char_function(degenerate_model, spectrum, [(0.0, 0.0)], 64)
    assert skipped > 0
    assert val == pytest.approx(1.0, abs=1e-12)


# the four wavenumbers where the degenerate coin's bands cross (tau = +-1)
_CROSSINGS = (np.array([-1.0, 1.0, -1.0, 1.0]) * math.pi / 2,
              np.array([1.0, -1.0, -1.0, 1.0]) * math.pi / 2)


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_band_weights_from_known_tau(coin, request):
    model = request.getfixturevalue(coin)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))
    k1, k2 = _rand_k(np.random.default_rng(12), 300)
    k1 = np.concatenate([k1, _CROSSINGS[0]])
    k2 = np.concatenate([k2, _CROSSINGS[1]])
    want = own_tau_band_weights(model, spectrum, k1, k2)
    got = spectral.band_weights(model, spectrum, k1, k2, spectral.angle_terms(model, k1, k2)[6])
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    if model.derived.degenerate:  # the crossings are really hit: all weight in band 2
        nrm = np.sum(np.abs(spectrum(k1[-4:], k2[-4:])) ** 2, axis=-1)
        assert np.array_equal(got[0][-4:], np.zeros(4)) and np.array_equal(got[1][-4:], nrm)


def _crossing_wavenumbers(model):
    """The four k where l1 and l2 are multiples of pi of opposite parity, so that
    tau = +-(a + b): band crossings of a degenerate coin."""
    a_sum, b_diff = model.alpha2 + model.alpha1, model.beta2 - model.beta1
    l1 = np.array([0.0, 0.0, math.pi, -math.pi])
    l2 = np.array([math.pi, -math.pi, 0.0, 0.0])
    return 0.5 * (l1 - l2 - a_sum + b_diff), 0.5 * (l1 + l2 - a_sum - b_diff)


wavenumber = st.floats(-math.pi, math.pi)


@settings(max_examples=300, deadline=None)
@given(moduli, st.lists(phase, min_size=6, max_size=6),
       st.dictionaries(site, st.tuples(amp, amp), min_size=1, max_size=3),
       st.lists(st.tuples(wavenumber, wavenumber), min_size=1, max_size=32))
@example((0.5, 0.5), [0.0] * 6, CROSSING_START, [(0.3, -1.1)])
def test_band_weights_property(moduli, phases, sites, ks):
    # finite, summing to |psi_hat|^2 and inside [0, |psi_hat|^2], band crossings included
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values()))
    assume(norm > 1e-3)
    spectrum = spectral.fourier_initial(lattice.initial_state_from_sites(
        {x: (a / norm, b / norm) for x, (a, b) in sites.items()}))
    model = Model(*moduli, *phases)
    c1, c2 = _crossing_wavenumbers(model)
    k1 = np.concatenate([[k for k, _ in ks], c1])
    k2 = np.concatenate([[k for _, k in ks], c2])
    w1, w2 = spectral.band_weights(model, spectrum, k1, k2, spectral.angle_terms(model, k1, k2)[6])
    nrm = np.sum(np.abs(spectrum(k1, k2)) ** 2, axis=-1)
    slack = 1e-12 * nrm
    assert np.isfinite(w1).all() and np.isfinite(w2).all()
    assert (np.abs(w1 + w2 - nrm) <= slack).all()
    for w in (w1, w2):
        assert (w >= -slack).all() and (w <= nrm + slack).all()


# spinor parts with signed zeros, which the product e^{-ik.0} psi may flip
spinor_part = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(moduli, st.lists(phase, min_size=6, max_size=6), st.tuples(*[spinor_part] * 4),
       st.lists(st.tuples(wavenumber, wavenumber), min_size=1, max_size=32))
@example((0.9, 0.1), [0.0] * 6, (1.0, 0.0, -0.0, -0.0), [(0.3, -1.1)])
@example((0.7, 0.33), [0.3, -1.1, 0.5, 2.0, -0.7, 1.3], (-0.0, 1.0, 0.0, 0.0), [(-0.0, 0.0)])
@example((0.5, 0.5), [0.0] * 6, (0.6, 0.0, -0.0, -0.8), [(math.pi, -0.0)])
def test_origin_spectrum_keeps_the_bits(moduli, phases, parts, ks):
    # the spinor of a start at the origin, against e^{-ik.0} times it: the band
    # weights keep every bit
    norm = math.sqrt(sum(x * x for x in parts))
    assume(norm > 1e-3)
    spinor = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])]) / norm
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(spinor))
    general = PhaseProductSpectrum(spectrum.sites, spectrum.amps)
    model = Model(*moduli, *phases)
    c1, c2 = _crossing_wavenumbers(model)
    k1 = np.concatenate([[k for k, _ in ks], c1, _EDGE_K])
    k2 = np.concatenate([[k for _, k in ks], c2, _EDGE_K[::-1]])
    tau = spectral.angle_terms(model, k1, k2)[6]
    for got, want in zip(spectral.band_weights(model, spectrum, k1, k2, tau),
                         spectral.band_weights(model, general, k1, k2, tau)):
        assert _same_bits(got, want)
    # U^t psi can hold an exactly zero part, as where the bands of a degenerate
    # coin cross, and the two paths may differ in its sign: + 0.0 clears that
    for t in (0, 1, 2, 7):
        for got, want in zip(spectral._propagated(model, spectrum, t, k1, k2),
                             spectral._propagated(model, general, t, k1, k2)):
            assert _same_bits(got + 0.0, want + 0.0)


_XIS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-2.5, 0.75)]


@pytest.mark.parametrize("coin", ["reference_model", "phased_model", "degenerate_model"])
def test_char_function_of_many_xi_matches_one_call_per_xi(coin, request):
    model = request.getfixturevalue(coin)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([0.6, 0.8j])))
    for xis in (_XIS, np.array(_XIS), _XIS[:1]):
        values, skipped = spectral.numeric_char_function(model, spectrum, xis, 64)
        assert isinstance(values, list) and len(values) == len(xis)
        for xi, value in zip(_XIS, values):
            one = spectral.numeric_char_function(model, spectrum, [xi], 64)
            assert ([value], skipped) == one
            assert (value, skipped) == per_xi_char_function(model, spectrum, xi, 64)
    assert (skipped > 0) == model.derived.degenerate


def test_char_function_rejects_bad_xi_shapes(reference_model):
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))
    for xi in ((1.0, 0.0), (1.0,), (1.0, 0.0, 0.0), [], [[(0.0, 0.0)]], 0.5):
        with pytest.raises(ValueError):
            spectral.numeric_char_function(reference_model, spectrum, xi, 8)


def test_char_function_rejects_all_degenerate_grid():
    # the one point of a 1 x 1 grid is a band crossing of this degenerate coin
    model = Model(0.5, 0.5, beta2=math.pi)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array([1.0, 0.0])))
    for xi in ([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)]):
        with pytest.raises(spectral.DegeneracyError):
            spectral.numeric_char_function(model, spectrum, xi, 1)
    with pytest.raises(ValueError):
        spectral.numeric_char_function(model, spectrum, [(0.0, 0.0)], 0)


_KONNO_PHASES = [{}, dict(alpha1=0.7, beta1=-1.3, delta1=0.4, alpha2=-0.9, beta2=2.1, delta2=-0.6),
                 dict(alpha1=2.5, beta1=0.3, delta1=-2.9, alpha2=1.1, beta2=-0.4, delta2=3.0)]


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_char_function_at_the_coin_domain_edges_is_konnos(eps):
    """Each edge of the coin domain is Konno's one-dimensional walk.

    A coin near diagonal (|a_q|^2 -> 1) makes both shifts follow one spin: the
    walk runs on the diagonal v1 = v2 with the other coin's |a|^2 = q.  A coin
    near off-diagonal (|a_q|^2 -> 0) puts it on the anti-diagonal with the other
    coin's |b|^2 = q.  So Re phi(s, +-s) tends to E cos(2 s X) under Konno's law;
    the real part does not depend on the start.  The gap was measured linear in
    eps, at most 0.44 eps, the same at 256^2, 512^2 and 1024^2, and the same to
    four digits for every phase set and both starts here.
    """
    s_values = (0.5, 1.0, 2.0)
    for spinor in ([1.0, 0.0], [0.6, 0.8j]):
        spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array(spinor)))
        for phases in _KONNO_PHASES:
            for (a1_sq, a2_sq), sign, q in (((0.3, 1.0 - eps), 1.0, 0.3),
                                            ((1.0 - eps, 0.3), 1.0, 0.3),
                                            ((eps, 0.3), -1.0, 0.7), ((0.3, eps), -1.0, 0.7)):
                model = Model(a1_sq, a2_sq, **phases)
                values, _ = spectral.numeric_char_function(
                    model, spectrum, [(s, sign * s) for s in s_values], 256)
                gaps = [abs(val.real - konno_cos(q, 2.0 * s)) for s, val in zip(s_values, values)]
                assert max(gaps) <= eps, (model, spinor, gaps)


def _start_moments(model, spinor):
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(np.array(spinor)))
    return kgrid_moments(model, spectrum, 256)


@pytest.mark.parametrize("model", [Model(0.9, 0.1), Model(0.3, 0.8, 0.3, -1.1, 0.5, 2.0, -0.7, 1.3)],
                         ids=["reference", "phased"])
def test_limit_moments_identities(model):
    """Three identities of the limit law's moments on the k-grid.

    E[V V^T] does not depend on a one-site start, since P_1 + P_2 = |psi_hat_0|^2
    = 1; E[V1^2] = E[V2^2]; and for the start (1, 0), E[V1^2] = -E[V2] and
    E[V1 V2] = -E[V1].  They held to 2.8e-17 at 256^2 and 512^2.
    """
    mean, second = _start_moments(model, [1.0, 0.0])
    _, second_b = _start_moments(model, [0.6, 0.8j])
    assert np.abs(second_b - second).max() <= 1e-15
    for m in (second, second_b):
        assert abs(m[0, 0] - m[1, 1]) <= 1e-15
    assert abs(second[0, 0] + mean[1]) <= 1e-15
    assert abs(second[0, 1] + mean[0]) <= 1e-15


def test_balanced_coin_second_moment_is_one_minus_two_over_pi():
    # the band crossings of (0.5, 0.5) slow the rule: 2.1e-9 off at 256^2, 1.3e-10 at 512^2
    _, second = _start_moments(Model(0.5, 0.5), [1.0, 0.0])
    assert abs(second[0, 0] - (1.0 - 2.0 / math.pi)) <= 5e-9
    assert abs(second[1, 1] - (1.0 - 2.0 / math.pi)) <= 5e-9


def test_walk_moments_tend_to_the_kgrid_moments(reference_model):
    """The walk's moments at T = 250 and 500, read off one trajectory.

    T (E[X/T] - E[V]) is steady near (-0.445, 0.45), so the Richardson mean
    2 E[X/500] - E[X/250] met the k-grid to 6.3e-6; the second moment converges
    as 1/T^2 (T^2 times its gap is 0.503) and met it to 2.0e-6 at T = 500.
    """
    mean, second = _start_moments(reference_model, [1.0, 0.0])
    state = lattice.evolve(reference_model, lattice.initial_state_delta(np.array([1.0, 0.0])), 250)
    early = lattice.moments(lattice.position_distribution(state))
    late = lattice.moments(lattice.position_distribution(lattice.evolve(reference_model, state, 250)))
    assert np.abs(2.0 * late.mean - early.mean - mean).max() <= 2e-5
    assert np.abs(late.second - second).max() <= 5e-6
