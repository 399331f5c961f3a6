"""The coin pair of the two-dimensional alternate-coin walk and its derived constants.

The walk applies, per time step, a 2x2 coin and a spin-dependent shift along
axis 1, then a second coin and shift along axis 2.  Each coin is determined by
a squared modulus |a_q|^2 in (0, 1) and three phases (alpha_q, beta_q,
delta_q); the off-diagonal modulus is |b_q| = sqrt(1 - |a_q|^2), so the coin is
unitary with determinant e^{i delta_q}.  ``Model(a1_sq, a2_sq, alpha1=...)``
is the one object that holds them, under the names of the configuration keys.
Its stored phases are reduced by ``wrap_angle``, one array path for any input.

Everything downstream (spectral formulas, limit support, Jacobians) depends on
the parameters only through the products a = |a_1||a_2| and b = |b_1||b_2| and
a handful of derived constants collected in ``DerivedConstants``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterDomainError",
    "DerivedConstants",
    "Model",
    "wrap_angle",
]

# a + b = 1 within this tolerance switches the degenerate (single-ellipse) path
_DEGENERACY_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


class ParameterDomainError(ValueError):
    """Raised when coin parameters leave their admissible domain."""


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the half-open interval [-pi, pi).

    A scalar comes back as a numpy scalar, and NaN or +-inf as NaN."""
    x = np.asarray(x)
    r = np.asarray(x - _TWO_PI * np.floor((x + math.pi) / _TWO_PI))
    # just below an odd multiple of pi, (x + pi) / 2pi rounds up and r lands below -pi;
    # past about 1e16 the product misses x by ulps of x, so what is still out of range
    # takes the exact fmod, to below 2pi in magnitude, where the formula holds
    if r.size and not np.abs(r).max() < math.pi:  # some r is out of range, -pi or NaN
        np.add(r, _TWO_PI, out=r, where=r < -math.pi)
        out = (r < -math.pi) | (r >= math.pi)
        if out.any():
            r[out] = wrap_angle(np.fmod(x[out], _TWO_PI))
    return r[()]


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the coin moduli and phases.

    a and b are the products |a_1||a_2| and |b_1||b_2|; they satisfy
    0 < a, 0 < b and a + b <= 1.  D_J is the discriminant
    (1 - (a^2 + b^2))^2 - 4 a^2 b^2, zero exactly when a + b = 1.  j_plus and
    j_minus are the roots of a b x^2 + (1 - (a^2 + b^2)) x + a b; their product
    is 1 and j_minus <= -1 <= j_plus < 0.  The axis_* values are the squared
    semi-axis lengths of the two support ellipses in the rotated velocity
    frame; they satisfy axis_R1 * axis_T1 = 4 a^2 and
    axis_R2 * axis_T2 = 4 b^2.  phi_1 and phi_2 are the wavenumber offsets
    produced by the coin phases alpha_q, beta_q.
    """

    a: float
    b: float
    delta: float
    D_J: float
    j_plus: float
    j_minus: float
    axis_R1: float
    axis_R2: float
    axis_T1: float
    axis_T2: float
    phi_1: float
    phi_2: float
    degenerate: bool


def _derive_constants(model: Model) -> DerivedConstants:
    a = model.modulus_a1 * model.modulus_a2
    b = model.modulus_b1 * model.modulus_b2
    degenerate = abs(a + b - 1.0) <= _DEGENERACY_TOL

    lin = 1.0 - (a * a + b * b)  # linear coefficient of the root polynomial
    if degenerate:
        # exact limits: the discriminant vanishes and both roots collapse to -1
        d_j = 0.0
        sqrt_d_j = 0.0
        j_plus = -1.0
        j_minus = -1.0
    else:
        d_j = max(lin * lin - 4.0 * a * a * b * b, 0.0)
        sqrt_d_j = math.sqrt(d_j)
        j_plus = (-lin + sqrt_d_j) / (2.0 * a * b)
        j_minus = (-lin - sqrt_d_j) / (2.0 * a * b)

    return DerivedConstants(
        a=a,
        b=b,
        delta=model.delta2 + model.delta1,
        D_J=d_j,
        j_plus=j_plus,
        j_minus=j_minus,
        axis_R1=1.0 + a * a - b * b + sqrt_d_j,
        axis_R2=1.0 - a * a + b * b - sqrt_d_j,
        axis_T1=1.0 + a * a - b * b - sqrt_d_j,
        axis_T2=1.0 - a * a + b * b + sqrt_d_j,
        phi_1=0.5 * (model.alpha2 + model.alpha1 - model.beta2 + model.beta1),
        phi_2=0.5 * (model.alpha2 + model.alpha1 + model.beta2 - model.beta1),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class Model:
    """A coin pair: the squared moduli |a_q|^2 and the phases of the two coins.

    The fields are the configuration keys of the same names; angles are stored
    reduced to [-pi, pi).  ``derived`` holds the constants the downstream
    formulas read, recomputed by every constructor call, ``dataclasses.replace``
    included.
    """

    a1_sq: float
    a2_sq: float
    alpha1: float = 0.0
    alpha2: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    derived: DerivedConstants = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("a1_sq", "a2_sq", "alpha1", "beta1", "delta1", "alpha2", "beta2", "delta2"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ParameterDomainError(f"{name} must be a finite real, got {v!r}")
            if name in ("a1_sq", "a2_sq"):
                if not 0.0 < v < 1.0:
                    raise ParameterDomainError(f"{name} must lie strictly inside (0, 1), got {v}")
                object.__setattr__(self, name, float(v))
            else:
                object.__setattr__(self, name, float(wrap_angle(float(v))))
        object.__setattr__(self, "derived", _derive_constants(self))

    @property
    def modulus_a1(self) -> float:
        return math.sqrt(self.a1_sq)

    @property
    def modulus_a2(self) -> float:
        return math.sqrt(self.a2_sq)

    @property
    def modulus_b1(self) -> float:
        return math.sqrt(1.0 - self.modulus_a1**2)

    @property
    def modulus_b2(self) -> float:
        return math.sqrt(1.0 - self.modulus_a2**2)

    @property
    def a1(self) -> complex:
        return self.modulus_a1 * np.exp(1j * self.alpha1)

    @property
    def b1(self) -> complex:
        return self.modulus_b1 * np.exp(1j * self.beta1)

    @property
    def a2(self) -> complex:
        return self.modulus_a2 * np.exp(1j * self.alpha2)

    @property
    def b2(self) -> complex:
        return self.modulus_b2 * np.exp(1j * self.beta2)

    def coin_matrix(self, q: int) -> np.ndarray:
        """2x2 unitary coin for axis q in {1, 2}, determinant e^{i delta_q}."""
        if q == 1:
            aq, bq, dq = self.a1, self.b1, self.delta1
        elif q == 2:
            aq, bq, dq = self.a2, self.b2, self.delta2
        else:
            raise ValueError(f"axis index must be 1 or 2, got {q}")
        phase = np.exp(0.5j * dq)
        return phase * np.array(
            [[aq, bq], [-np.conj(bq), np.conj(aq)]], dtype=np.complex128
        )
