"""Momentum-space form of the walk: Bloch matrix, bands, and quadrature.

Fourier convention: psi_hat(k) = sum_x e^{-i k.x} psi(x), so a shift that
moves component 1 to x - e_q multiplies component 1 by e^{+i k_q}.  One time
step acts in momentum space as the 2x2 unitary

    U(k) = D(k_2) C_2 D(k_1) C_1,       D(k) = diag(e^{ik}, e^{-ik}),

whose trace is 2 tau(k) e^{i delta / 2} with
tau = a cos(l_1) - b cos(l_2), where l_1 = k_2 + k_1 + alpha_2 + alpha_1 and
l_2 = k_2 - k_1 + beta_2 - beta_1 fold the coin phases into rotated angles.
The band eigenvalues are (tau +- i sqrt(1 - tau^2)) e^{i delta/2}; band 1
carries the + sign.  All helpers broadcast over numpy arrays of wavenumbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeState, _pairwise_sum
from .model import ParameterDomainError

__all__ = [
    "DEGENERATE_GAP_TOL",
    "DegeneracyError",
    "InitialSpectrum",
    "angle_terms",
    "band1_velocity",
    "group_velocity",
    "band_weights",
    "fourier_initial",
    "spectral_reconstruct",
    "numeric_char_function",
]

# band gap threshold below which a wavenumber counts as spectrally degenerate
DEGENERATE_GAP_TOL = 1e-12
# points per block of complex per-point work (about 330 B a point) held beside verify's walk
_GRID_BLOCK = 1 << 11


class DegeneracyError(ParameterDomainError):
    """Raised when the two bands coincide at every wavenumber a quadrature samples."""


def angle_terms(model, k1, k2):
    """Rotated angles (l1, l2) and their cos/sin plus tau, broadcast over k."""
    l1 = np.asarray(k2) + np.asarray(k1) + (model.alpha2 + model.alpha1)
    l2 = np.asarray(k2) - np.asarray(k1) + (model.beta2 - model.beta1)
    c1, s1 = np.cos(l1), np.sin(l1)
    c2, s2 = np.cos(l2), np.sin(l2)
    tau = model.derived.a * c1 - model.derived.b * c2
    return l1, l2, c1, s1, c2, s2, tau


def _expi(k):
    """e^{ik} with the bits of np.exp(1j * k): glibc's cexp(+-0, y) is (cos y, sin y)."""
    k = 0.0 + np.asarray(k)  # the imaginary part of 1j * k, where -0.0 is +0.0
    out = np.empty(np.shape(k), dtype=np.complex128)
    np.cos(k, out=out.real)
    np.sin(k, out=out.imag)
    return out


def _bloch_entries(model, k1, k2):
    """Entries (m11, m12, m21, m22) of U(k), broadcast over wavenumber arrays."""
    a1, b1, a2, b2 = model.a1, model.b1, model.a2, model.b2
    e1p = _expi(k1)
    e1m = np.conj(e1p)
    e2p = _expi(k2)
    e2m = np.conj(e2p)
    phase = np.exp(0.5j * model.derived.delta)
    m11 = phase * e2p * (a2 * a1 * e1p - b2 * np.conj(b1) * e1m)
    m12 = phase * e2p * (a2 * b1 * e1p + b2 * np.conj(a1) * e1m)
    m21 = phase * e2m * (-np.conj(b2) * a1 * e1p - np.conj(a2) * np.conj(b1) * e1m)
    m22 = phase * e2m * (-np.conj(b2) * b1 * e1p + np.conj(a2) * np.conj(a1) * e1m)
    return m11, m12, m21, m22


def _eigenvalues_at(model, tau):
    """Band eigenvalues (lam1, lam2) at the wavenumbers whose trace term is tau."""
    gap = np.sqrt(np.maximum(1.0 - tau * tau, 0.0))
    phase = np.exp(0.5j * model.derived.delta)
    return (tau + 1j * gap) * phase, (tau - 1j * gap) * phase


def band1_velocity(model, s1, s2, gap):
    """Band-1 group velocity from sin(l1), sin(l2) and the gap sqrt(1 - tau^2).

    The callers differ only where the bands touch, in the gap they pass there.
    """
    d = model.derived
    return -(d.a * s1 + d.b * s2) / gap, -(d.a * s1 - d.b * s2) / gap


def group_velocity(model, k1, k2):
    """Band-1 group velocity (v1, v2); band 2's is its negative."""
    _, _, _, s1, _, s2, tau = angle_terms(model, k1, k2)
    return band1_velocity(model, s1, s2, np.sqrt(np.maximum(1.0 - tau * tau, 0.0)))


@dataclass(frozen=True)
class InitialSpectrum:
    """Fourier transform of a finitely supported initial state.

    Calling the object with wavenumber arrays returns psi_hat(k) with shape
    broadcast(k1, k2).shape + (2,), a read-only view of the spinor for one site
    at the origin: e^{-ik.0} = 1 +- 0i only flips the sign of a zero part.
    """

    sites: np.ndarray  # int, shape (N, 2)
    amps: np.ndarray  # complex, shape (N, 2)

    def __call__(self, k1, k2) -> np.ndarray:
        k1 = np.asarray(k1, dtype=np.float64)
        k2 = np.asarray(k2, dtype=np.float64)
        shape = np.broadcast_shapes(k1.shape, k2.shape)
        if self.sites.shape[0] == 1 and not self.sites.any():
            return np.broadcast_to(self.amps[0], shape + (2,))
        k1, k2 = (np.broadcast_to(k, shape)[..., None] for k in (k1, k2))
        phase = np.exp(-1j * (k1 * self.sites[:, 0] + k2 * self.sites[:, 1]))
        return phase @ self.amps


def fourier_initial(state: LatticeState) -> InitialSpectrum:
    """Spectrum of a lattice state with respect to e^{-i k.x}."""
    dense = state.amps
    nz = np.nonzero(np.any(dense != 0, axis=0))
    if nz[0].size == 0:
        raise ValueError("state has no nonzero amplitude")
    sites = np.stack([nz[0] + state.x1_min, nz[1] + state.x2_min], axis=1)
    amps = dense[:, nz[0], nz[1]].T.copy()
    return InitialSpectrum(sites=sites.astype(np.int64), amps=amps)


def _propagated(model, spectrum: InitialSpectrum, t: int, k1, k2):
    """U(k)^t psi_hat_0(k) as a pair of component arrays."""
    psi = spectrum(k1, k2)
    p0, p1 = psi[..., 0], psi[..., 1]
    if t == 0:
        return p0, p1
    m11, m12, m21, m22 = _bloch_entries(model, k1, k2)
    lam1, lam2 = _eigenvalues_at(model, angle_terms(model, k1, k2)[6])
    mp0 = m11 * p0 + m12 * p1
    mp1 = m21 * p0 + m22 * p1
    gap = lam1 - lam2
    # band-1 projector applied to psi; where the bands cross, U(k) = lam I, so
    # the term is 0 and psi advances by lam^t
    with np.errstate(divide="ignore", invalid="ignore"):
        q0 = np.where(gap == 0, 0.0, (mp0 - lam2 * p0) / gap)
        q1 = np.where(gap == 0, 0.0, (mp1 - lam2 * p1) / gap)
    w1 = lam1**t
    w2 = lam2**t
    return w1 * q0 + w2 * (p0 - q0), w1 * q1 + w2 * (p1 - q1)


def spectral_reconstruct(model, state0: LatticeState, t: int) -> LatticeState:
    """Position-space state after t steps, via the inverse FFT.

    The evolved spectrum is a trigonometric polynomial whose support fits in a
    window of (n1, n2) = initial extent + 2t sites per axis, so sampling on an
    (n1 x n2) uniform grid reconstructs the amplitudes without aliasing and
    agrees with the direct lattice evolution to rounding error.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    spectrum = fourier_initial(state0)
    n1 = state0.shape[0] + 2 * t
    n2 = state0.shape[1] + 2 * t
    g1 = (2.0 * math.pi / n1) * np.arange(n1)[:, None]
    g2 = (2.0 * math.pi / n2) * np.arange(n2)[None, :]
    amps = np.fft.ifft2(_propagated(model, spectrum, t, g1, g2))
    x1_min = state0.x1_min - t
    x2_min = state0.x2_min - t
    amps = np.roll(amps, (-x1_min, -x2_min), axis=(1, 2))
    return LatticeState.from_amps(amps, x1_min, x2_min, t)


def band_weights(model, spectrum: InitialSpectrum, k1, k2, tau):
    """Spectral weights P_p(k) = |<psi_hat_0(k)|band p>|^2 for p = 1, 2.

    Computed through the spectral projector (U - lam_2)/(lam_1 - lam_2), which
    avoids picking eigenvector phases.  P_1 + P_2 = |psi_hat_0(k)|^2; where the
    bands cross, U(k) = lam I and, as in ``_propagated``, P_1 = 0.  tau is the
    trace term ``angle_terms(model, k1, k2)[6]``, an array, which every caller
    has already computed: the quadrature on its grid, the limit density in the
    forward-consistency gate at each preimage.
    """
    psi = spectrum(k1, k2)
    p0, p1 = psi[..., 0], psi[..., 1]
    m11, m12, m21, m22 = _bloch_entries(model, k1, k2)
    lam1, lam2 = _eigenvalues_at(model, tau)
    ip = np.conj(p0) * (m11 * p0 + m12 * p1) + np.conj(p1) * (m21 * p0 + m22 * p1)
    nrm = np.abs(p0) ** 2 + np.abs(p1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = np.real((ip - lam2 * nrm) / (lam1 - lam2))
    w1[lam1 == lam2] = 0.0
    return w1, nrm - w1


def _wavenumber_grid(n: int):
    """The grid -pi + 2 pi j / n, j < n, as a column and a row that broadcast to n x n."""
    g = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    return g[:, None], g[None, :]


def numeric_char_function(model, spectrum: InitialSpectrum, xi, grid_n: int):
    """Limit characteristic function E[e^{i xi . V}] by uniform grid quadrature.

    Averages sum_p e^{i xi . v_p(k)} P_p(k) over an (grid_n x grid_n) uniform
    wavenumber grid.  Grid points where the bands touch (1 - tau^2 <= 1e-12)
    have no defined group velocity and are skipped; the average runs over the
    remaining points, and ``DegeneracyError`` is raised if none remains.

    xi is a sequence of pairs (xi1, xi2).  Returns a list with one complex
    value per pair and the count of skipped points.  One pass over blocks of
    grid rows builds each block's velocities and band weights once for every
    xi, and sums each xi as ``np.sum`` sums the whole grid.
    """
    if grid_n < 1:
        raise ValueError(f"grid size must be positive, got {grid_n}")
    xis = np.asarray(xi, dtype=np.float64)
    if xis.ndim != 2 or xis.shape[1] != 2:
        raise ValueError(f"xi must be a sequence of pairs, got shape {xis.shape}")
    col, row = _wavenumber_grid(grid_n)
    rows = max(1, _GRID_BLOCK // grid_n)
    xi1, xi2 = xis.T[:, :, None, None]
    n_ok = 0

    def pieces():
        nonlocal n_ok
        for lo in range(0, grid_n, rows):
            g1 = col[lo : lo + rows]
            _, _, _, s1, _, s2, tau = angle_terms(model, g1, row)
            gap_sq = 1.0 - tau * tau
            ok = gap_sq > DEGENERATE_GAP_TOL
            n_ok += int(np.count_nonzero(ok))
            v1, v2 = band1_velocity(model, s1, s2, np.sqrt(np.where(ok, gap_sq, 1.0)))
            w1, w2 = band_weights(model, spectrum, g1, row, tau)
            phase = xi1 * v1 + xi2 * v2  # one xi per outer row
            vals = np.exp(1j * phase) * w1 + np.exp(-1j * phase) * w2
            yield np.where(ok, vals, 0.0).reshape(len(xis), ok.size)

    sums = _pairwise_sum(grid_n * grid_n, np.complex128, pieces())
    if n_ok == 0:
        raise DegeneracyError("all grid points are spectrally degenerate")
    return [complex(total / n_ok) for total in sums], grid_n * grid_n - n_ok
