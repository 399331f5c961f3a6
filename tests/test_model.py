import math

import numpy as np
import pytest

from altwalk.model import (
    CoinParameters,
    ParameterDomainError,
    build_model,
    derive_constants,
    wrap_angle,
)


def test_wrap_angle_range():
    xs = np.array([-7.0, -math.pi, 0.0, math.pi, 9.5, 100.0])
    w = wrap_angle(xs)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    assert np.allclose(np.cos(w), np.cos(xs), atol=1e-12)
    assert np.allclose(np.sin(w), np.sin(xs), atol=1e-12)
    assert wrap_angle(math.pi) == -math.pi


def test_modulus_out_of_range_rejected():
    with pytest.raises(ParameterDomainError):
        CoinParameters.from_squared_moduli(1.2, 0.5)
    with pytest.raises(ParameterDomainError):
        CoinParameters.from_squared_moduli(0.5, -0.1)


def test_numpy_real_scalars_accepted():
    p = CoinParameters.from_squared_moduli(np.float32(0.9), np.float64(0.1),
                                           alpha1=np.int64(1), beta2=np.float32(-0.5))
    assert p == CoinParameters.from_squared_moduli(float(np.float32(0.9)), 0.1,
                                                   alpha1=1.0, beta2=float(np.float32(-0.5)))
    assert type(p.modulus_a1) is float and type(p.alpha1) is float
    for bad in (np.float32("nan"), np.float64("inf"), np.float32(1.5), np.int64(1)):
        with pytest.raises(ParameterDomainError):
            CoinParameters.from_squared_moduli(bad, 0.5)
    with pytest.raises(ParameterDomainError):
        CoinParameters.from_squared_moduli(0.5, 0.5, alpha1=np.float64("nan"))


def test_moduli_complementary():
    p = CoinParameters.from_squared_moduli(0.7, 0.2)
    assert p.modulus_a1**2 + p.modulus_b1**2 == pytest.approx(1.0, abs=1e-14)
    assert p.modulus_a2**2 + p.modulus_b2**2 == pytest.approx(1.0, abs=1e-14)


def test_coin_matrices_unitary(phased_model):
    for q in (1, 2):
        c = phased_model.coin_matrix(q)
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-14)


def test_coin_determinant_is_global_phase():
    p = CoinParameters.from_squared_moduli(0.6, 0.8, 0.2, -0.4, 1.0, 0.5, 0.3, -1.2)
    m = build_model(p)
    # det C0q = e^{i delta_q} for the phase convention used here
    assert np.linalg.det(m.coin_matrix(1)) == pytest.approx(
        np.exp(1j * p.delta1), abs=1e-14)
    assert np.linalg.det(m.coin_matrix(2)) == pytest.approx(
        np.exp(1j * p.delta2), abs=1e-14)


def test_reference_derived_constants(reference_model):
    d = reference_model.derived
    assert d.a == pytest.approx(0.3, abs=1e-15)
    assert d.b == pytest.approx(0.3, abs=1e-15)
    assert d.D_J == pytest.approx(0.64, abs=1e-12)
    assert d.j_plus == pytest.approx(-1.0 / 9.0, abs=1e-12)
    assert (d.axis_R1, d.axis_R2) == (pytest.approx(1.8, abs=1e-12),
                                      pytest.approx(0.2, abs=1e-12))
    assert (d.axis_T1, d.axis_T2) == (pytest.approx(0.2, abs=1e-12),
                                      pytest.approx(1.8, abs=1e-12))
    assert not d.degenerate


def test_axis_products(phased_model):
    d = phased_model.derived
    assert d.axis_R1 * d.axis_T1 == pytest.approx(4 * d.a**2, abs=1e-12)
    assert d.axis_R2 * d.axis_T2 == pytest.approx(4 * d.b**2, abs=1e-12)
    assert d.j_plus * d.j_minus == pytest.approx(1.0, abs=1e-12)
    assert d.D_J == pytest.approx(
        (1 - (d.a**2 + d.b**2)) ** 2 - 4 * d.a**2 * d.b**2, abs=1e-14)


def test_degenerate_flag(degenerate_model):
    d = degenerate_model.derived
    assert d.degenerate
    assert d.D_J == 0.0
    assert d.j_plus == -1.0 and d.j_minus == -1.0
    assert d.a + d.b == pytest.approx(1.0, abs=1e-15)


def test_degeneracy_is_equal_moduli():
    # a + b = 1 exactly when |a1| = |a2|
    assert build_model(CoinParameters.from_squared_moduli(0.37, 0.37)).derived.degenerate
    assert not build_model(CoinParameters.from_squared_moduli(0.37, 0.38)).derived.degenerate


def test_phi_shift_values():
    p = CoinParameters.from_squared_moduli(0.5, 0.5, 0.4, 0.6, -0.2, 0.8)
    d = derive_constants(p)
    assert d.phi_1 == pytest.approx((0.6 + 0.4 - 0.8 + (-0.2)) / 2, abs=1e-14)
    assert d.phi_2 == pytest.approx((0.6 + 0.4 + 0.8 - (-0.2)) / 2, abs=1e-14)


def test_angles_are_wrapped():
    p = CoinParameters.from_squared_moduli(0.5, 0.5, alpha1=7.0)
    assert -math.pi <= p.alpha1 < math.pi
