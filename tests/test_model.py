import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from altwalk.cli import RunConfig
from altwalk.model import _DEGENERACY_TOL, Model, ParameterDomainError, wrap_angle
from oracles import closed_form_constants, floor_wrap_angle


def test_wrap_angle_range():
    xs = np.array([-7.0, -math.pi, 0.0, math.pi, 9.5, 100.0])
    w = wrap_angle(xs)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    assert np.allclose(np.cos(w), np.cos(xs), atol=1e-12)
    assert np.allclose(np.sin(w), np.sin(xs), atol=1e-12)
    assert wrap_angle(math.pi) == -math.pi


def test_wrap_angle_stays_in_range_below_odd_multiples_of_pi():
    # just below pi and 5 pi, (x + pi) / 2pi rounds up to an integer, and the
    # plain floor formula returned a value below -pi
    xs = np.array([3.1415926535897927, 15.707963267948964, -3.1415926535897936])
    w = wrap_angle(xs)
    assert np.all(w >= -math.pi) and np.all(w < math.pi)
    assert w[0] == xs[0]
    assert np.array_equal(wrap_angle(w), w)
    assert [wrap_angle(float(x)) for x in xs] == w.tolist()


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1.7e308)
@example(-1.7976931348623157e308)
@example(3.1415926535897927)
@example(5e-324)
def test_wrap_angle_in_range_for_every_finite_float(x):
    scalar, array = wrap_angle(x), wrap_angle(np.array([x]))
    assert -math.pi <= scalar < math.pi
    assert array.tolist() == [scalar]
    # the floor formula's result stands wherever it is in range
    floor = floor_wrap_angle(x)
    if -math.pi <= floor < math.pi:
        assert scalar == floor


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_wrap_angle_returns_nan_for_a_non_finite_angle(x):
    # scalars take the array path: a scalar branch of its own recursed without end
    # on NaN and raised ValueError on +-inf, where the array code returns NaN
    with np.errstate(invalid="ignore"):  # inf - inf inside the floor formula
        scalar, array = wrap_angle(x), wrap_angle(np.array([7.0, x]))
    assert type(scalar) is np.float64 and math.isnan(scalar)
    assert array[0] == wrap_angle(np.array(7.0)) and math.isnan(array[1])


def test_wrap_angle_reduces_what_the_floor_formula_leaves_out_of_range():
    # log-uniform magnitudes up to the largest double: past about 1e16 the floor
    # formula misses x by ulps of x, on about one draw in eight from 1e17 up
    rng = np.random.default_rng(41)
    xs = rng.choice([-1.0, 1.0], 40_000) * np.exp(rng.uniform(math.log(1e-3), math.log(1e308),
                                                               40_000))
    floor = floor_wrap_angle(xs.copy())
    kept = (floor >= -math.pi) & (floor < math.pi)
    assert (~kept).sum() > 1000
    w = wrap_angle(xs.copy())
    assert np.all((w >= -math.pi) & (w < math.pi))
    assert np.array_equal(w[kept], floor[kept])
    assert [wrap_angle(float(x)) for x in xs[::40]] == w[::40].tolist()
    # out of range, the result is the exact remainder of x by the double 2 pi, shifted
    # by at most one period
    rem = np.fmod(xs[~kept], 2.0 * math.pi)
    shift = w[~kept] - rem
    assert np.all(np.isin(shift, [-2.0 * math.pi, 0.0, 2.0 * math.pi]))
    assert Model(0.9, 0.1, alpha1=1.7e308).alpha1 == -1.0128362867734282


def test_modulus_out_of_range_rejected():
    with pytest.raises(ParameterDomainError):
        Model(1.2, 0.5)
    with pytest.raises(ParameterDomainError):
        Model(0.5, -0.1)


def test_numpy_real_scalars_accepted():
    p = Model(np.float32(0.9), np.float64(0.1), alpha1=np.int64(1), beta2=np.float32(-0.5))
    assert p == Model(float(np.float32(0.9)), 0.1, alpha1=1.0, beta2=float(np.float32(-0.5)))
    assert type(p.modulus_a1) is float and type(p.alpha1) is float
    for bad in (np.float32("nan"), np.float64("inf"), np.float32(1.5), np.int64(1)):
        with pytest.raises(ParameterDomainError):
            Model(bad, 0.5)
    with pytest.raises(ParameterDomainError):
        Model(0.5, 0.5, alpha1=np.float64("nan"))


def test_moduli_complementary():
    p = Model(0.7, 0.2)
    assert p.modulus_a1**2 + p.modulus_b1**2 == pytest.approx(1.0, abs=1e-14)
    assert p.modulus_a2**2 + p.modulus_b2**2 == pytest.approx(1.0, abs=1e-14)


def test_coin_matrices_unitary(phased_model):
    for q in (1, 2):
        c = phased_model.coin_matrix(q)
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-14)


def test_coin_determinant_is_global_phase():
    m = Model(0.6, 0.8, 0.2, -0.4, 1.0, 0.5, 0.3, -1.2)
    # det C0q = e^{i delta_q} for the phase convention used here
    assert np.linalg.det(m.coin_matrix(1)) == pytest.approx(
        np.exp(1j * m.delta1), abs=1e-14)
    assert np.linalg.det(m.coin_matrix(2)) == pytest.approx(
        np.exp(1j * m.delta2), abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(st.fractions(0, 1, max_denominator=10**9), st.fractions(0, 1, max_denominator=10**9))
@example(Fraction(9, 10), Fraction(1, 10))
@example(Fraction(1, 2), Fraction(1, 2))
@example(Fraction(1, 10**6), Fraction(3, 10))
@example(Fraction(1, 2), Fraction(500001, 1000000))
def test_derived_constants_are_the_closed_forms_exactly(a1_sq, a2_sq):
    # _derive_constants' formulas in exact arithmetic: D_J is a square, so its root
    # is exact, and the two support ellipses are the coins' own Grover ellipses
    assume(0 < a1_sq < 1 and 0 < a2_sq < 1)
    a_sq, b_sq = a1_sq * a2_sq, (1 - a1_sq) * (1 - a2_sq)
    lin = 1 - a_sq - b_sq
    d_j = lin * lin - 4 * a_sq * b_sq
    closed_d_j, (r1, r2, t1, t2), (j_plus, j_minus) = closed_form_constants(a1_sq, a2_sq)
    root = abs(a1_sq - a2_sq)
    assert d_j == closed_d_j == root * root
    assert (r1, r2, t1, t2) == (1 + a_sq - b_sq + root, 1 - a_sq + b_sq - root,
                                1 + a_sq - b_sq - root, 1 - a_sq + b_sq + root)
    assert r1 * t1 == 4 * a_sq and r2 * t2 == 4 * b_sq
    assert r1 == 2 * max(a1_sq, a2_sq) and t1 == 2 * min(a1_sq, a2_sq)
    # the roots of a b x^2 + lin x + a b: product 1, and j_plus = (root - lin) / (2 a b)
    # is negative with square t1 r2 / (r1 t2), which the closed form takes the root of
    assert (lin * lin - d_j) / (4 * a_sq * b_sq) == 1
    assert root - lin < 0
    assert (root - lin) ** 2 / (4 * a_sq * b_sq) == t1 * r2 / (r1 * t2) <= 1
    assert math.isclose(j_plus ** 2, t1 * r2 / (r1 * t2), rel_tol=1e-15)
    assert j_plus < 0 and j_minus == 1 / j_plus


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
    assert Model(0.37, 0.37).derived.degenerate
    assert not Model(0.37, 0.38).derived.degenerate


def test_phi_shift_values():
    p = Model(0.5, 0.5, 0.4, 0.6, -0.2, 0.8)
    d = p.derived
    assert d.phi_1 == pytest.approx((0.6 + 0.4 - 0.8 + (-0.2)) / 2, abs=1e-14)
    assert d.phi_2 == pytest.approx((0.6 + 0.4 + 0.8 - (-0.2)) / 2, abs=1e-14)


def test_angles_are_wrapped():
    p = Model(0.5, 0.5, alpha1=7.0)
    assert -math.pi <= p.alpha1 < math.pi


def test_fields_are_the_config_coin_keys():
    # one spelling of a coin pair: the CLI's coin keys, in their order
    assert [f.name for f in fields(Model) if f.init] == [f.name for f in fields(RunConfig)][:8]


def test_replace_rederives_constants(phased_model):
    m = replace(phased_model, alpha1=1.0)
    assert m.alpha1 == 1.0
    assert m.derived.phi_1 == 0.5 * (m.alpha2 + 1.0 - m.beta2 + m.beta1)
    assert m.derived.phi_1 != phased_model.derived.phi_1
    for name in ("a1_sq", "a2_sq", "modulus_a1", "modulus_a2", "modulus_b1", "modulus_b2"):
        assert getattr(m, name).hex() == getattr(phased_model, name).hex()
    for name in ("a", "b", "D_J", "j_plus", "j_minus", "axis_R1", "axis_R2", "axis_T1", "axis_T2"):
        assert getattr(m.derived, name).hex() == getattr(phased_model.derived, name).hex()


# squared moduli in [1e-6, 1 - 1e-6], log-uniform toward both ends
_toward_zero = st.floats(-6.0, 0.0).map(lambda e: 10.0**e)
squared_modulus = st.one_of(_toward_zero, _toward_zero.map(lambda x: 1.0 - x)).map(
    lambda x: min(max(x, 1e-6), 1.0 - 1e-6))
moduli = st.one_of(squared_modulus.map(lambda x: (x, x)), st.tuples(squared_modulus, squared_modulus))


@settings(max_examples=500, deadline=None)
@given(moduli, st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
@example((1e-6, 1.0028094515949814e-06), [0.0] * 6)  # degenerate within _DEGENERACY_TOL only
@example((0.5, 0.5), [3.1415926535897927] + [0.0] * 5)  # the largest double below pi
def test_model_invariants_over_the_domain(moduli, phases):
    m = Model(*moduli, *phases)
    for name in ("alpha1", "alpha2", "beta1", "beta2", "delta1", "delta2"):
        assert -math.pi <= getattr(m, name) < math.pi
    for q, delta in ((1, m.delta1), (2, m.delta2)):
        c = m.coin_matrix(q)
        assert np.max(np.abs(c @ c.conj().T - np.eye(2))) <= 1e-14
        assert abs(np.linalg.det(c) - np.exp(1j * delta)) <= 1e-14
    d = m.derived
    # a coin within _DEGENERACY_TOL of a + b = 1 takes the limits of a + b = 1 (D_J = 0),
    # which moves each product by up to about 2 _DEGENERACY_TOL / min(a, b) relative
    rel = 1e-9 + (4 * _DEGENERACY_TOL / min(d.a, d.b) if d.degenerate else 0.0)
    assert d.axis_R1 * d.axis_T1 == pytest.approx(4 * d.a**2, rel=rel, abs=0.0)
    assert d.axis_R2 * d.axis_T2 == pytest.approx(4 * d.b**2, rel=rel, abs=0.0)
    if moduli[0] == moduli[1]:
        assert d.degenerate
