"""Weak-limit velocity density of the walk and its change-of-variables toolkit.

The rescaled position X_t / t converges in law to a measure with density
f(v) / (2pi)^2 supported on the intersection of two concentric ellipses.  In
the rotated frame u = ((v1 + v2)/sqrt2, (v1 - v2)/sqrt2) the two ellipses are
axis-aligned with squared semi-axes (axis_R1, axis_R2) and (axis_T1, axis_T2).

f(v) is assembled from the preimages of v under the band-1 group-velocity map.
Preimages are labelled by a branch tuple (n, m, s, p):

* n in 1..8 picks one square of the windmill tiling of the rotated-angle
  plane (l1, l2); each square maps onto one quadrant of the u-plane.
* m in 1..4 picks one sector of the (cos l1, cos l2) square, cut by the two
  lines c2 = j_plus * c1 and c1 = j_plus * c2; odd-m sectors pair with the
  smaller root of 1 - tau^2 (Jacobian label "-"), even-m sectors with the
  larger root (label "+").
* s in {R, T} records which half of the sector square the cosine pair lies
  in (|c2| <= |c1| is R); for even m the shape is forced by which side of the
  lines a|u2| = b|u1| the point u falls on, for odd m it is redundant.
* p in {1, 2} is the band; band-2 preimages of v are band-1 preimages of -v.

For interior velocity points exactly 16 branches produce a preimage, eight
per Jacobian sign.  Each contributes its spectral weight P_p(k) times the
inverse Jacobian, and every inverse is validated by applying the forward map
and checking the velocity is reproduced within 1e-9; branches that fail any
algebraic gate or that final check simply do not contribute.  This
enumeration is the authoritative density; the published closed-form region
bookkeeping is retained only as a soft cross-check (``weight_table_report``).

``density_grid`` enumerates only the evaluable points (inside the support
and outside the boundary shell), and runs the four m slots of each (p, n)
only on those whose band-p rotated coordinates lie in square n's closed
u-quadrant, the first gate of ``branch_preimages``; for an interior point
off the rotated axes that is two squares per band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, wrap_angle
from .spectral import DEGENERATE_GAP_TOL, angle_terms, band_weights, group_velocity

__all__ = [
    "SUPPORT_BOUNDARY_TOL",
    "SHELL_FLOOR",
    "FORWARD_CONSISTENCY_TOL",
    "DEDUP_K_TOL",
    "OutsideSupportError",
    "BranchError",
    "Branch",
    "DensityGrid",
    "IntegralResult",
    "rotated_coords",
    "forward_map",
    "support_contains",
    "support_corners",
    "support_radius",
    "support_boundary",
    "jacobian_inverse",
    "jacobian_forward",
    "classify_branch",
    "inverse_map",
    "branch_preimages",
    "density",
    "density_grid",
    "integrate_density",
    "reference_ellipse_grover",
    "weight_table_report",
]

SUPPORT_BOUNDARY_TOL = 1e-9  # half-width of the support boundary band
SHELL_FLOOR = 1e-14  # density refuses points with E_R * E_T below this
FORWARD_CONSISTENCY_TOL = 1e-9  # forward-map residual accepted for a preimage
DEDUP_K_TOL = 1e-7  # torus distance below which two preimages count once
_QUADRATURE_SHELL = 1e-4  # width of the boundary shell integrate_density excises

_SQRT_HALF = math.sqrt(0.5)

# windmill square n -> expected sign quadrant of u = (sign of u1, sign of u2)
_REGION_SIGNS = {
    1: (-1.0, -1.0),
    2: (1.0, -1.0),
    3: (1.0, 1.0),
    4: (-1.0, 1.0),
    5: (-1.0, -1.0),
    6: (1.0, -1.0),
    7: (1.0, 1.0),
    8: (-1.0, 1.0),
}

# windmill square n -> closed rectangle [lo1, hi1] x [lo2, hi2] in (l1, l2)
_PI = math.pi
_REGION_BOXES = {
    1: (0.0, _PI, 0.0, _PI),
    2: (-_PI, 0.0, 0.0, _PI),
    3: (-_PI, 0.0, -_PI, 0.0),
    4: (0.0, _PI, -_PI, 0.0),
    5: (-2 * _PI, -_PI, 0.0, _PI),
    6: (-_PI, 0.0, -2 * _PI, -_PI),
    7: (_PI, 2 * _PI, -_PI, 0.0),
    8: (0.0, _PI, _PI, 2 * _PI),
}


class OutsideSupportError(ValueError):
    """Raised when a velocity point is not strictly inside the limit support."""


class BranchError(ValueError):
    """Raised when a branch tuple has no preimage at the requested velocity."""


@dataclass(frozen=True)
class Branch:
    """Preimage label (n, m, s, p); see the module docstring."""

    n: int
    m: int
    s: str
    p: int

    def __post_init__(self):
        if self.n not in range(1, 9):
            raise ValueError(f"n must be in 1..8, got {self.n}")
        if self.m not in range(1, 5):
            raise ValueError(f"m must be in 1..4, got {self.m}")
        if self.s not in ("R", "T"):
            raise ValueError(f"s must be 'R' or 'T', got {self.s!r}")
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")


def rotated_coords(v1, v2):
    """Rotate (v1, v2) into the ellipse-aligned frame; the map is involutory."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    return _SQRT_HALF * (v1 + v2), _SQRT_HALF * (v1 - v2)


def forward_map(model: Model, k1, k2):
    """Band-1 group velocity; the map whose preimages build the density."""
    return group_velocity(model, 1, k1, k2)


def _ellipse_forms(model: Model, u1, u2):
    """Quadratic forms of the two support ellipses in the rotated frame."""
    d = model.derived
    u1sq = np.asarray(u1) ** 2
    u2sq = np.asarray(u2) ** 2
    q_r = u1sq / d.axis_R1 + u2sq / d.axis_R2
    q_t = u1sq / d.axis_T1 + u2sq / d.axis_T2
    return q_r, q_t


def support_contains(model: Model, v1: float, v2: float, tol: float = SUPPORT_BOUNDARY_TOL) -> str:
    """Classify a velocity point as 'inside', 'boundary', or 'outside'.

    The point is inside when both ellipse forms are < 1 - tol, outside when
    either exceeds 1 + tol, and on the boundary band otherwise.
    """
    u1, u2 = rotated_coords(v1, v2)
    q_r, q_t = _ellipse_forms(model, u1, u2)
    worst = float(np.maximum(q_r, q_t))
    if worst < 1.0 - tol:
        return "inside"
    if worst <= 1.0 + tol:
        return "boundary"
    return "outside"


def _inside_mask(model: Model, u1, u2, tol: float = SUPPORT_BOUNDARY_TOL):
    q_r, q_t = _ellipse_forms(model, u1, u2)
    return (q_r < 1.0 - tol) & (q_t < 1.0 - tol)


def support_corners(model: Model) -> np.ndarray:
    """Velocity coordinates of the four ellipse crossings, or an empty array.

    Degenerate models (a + b = 1) have coinciding ellipses and no corners.
    """
    d = model.derived
    if d.degenerate:
        return np.empty((0, 2))
    p, q = 1.0 / d.axis_R1, 1.0 / d.axis_R2
    r, s = 1.0 / d.axis_T1, 1.0 / d.axis_T2
    det = p * s - q * r
    u1sq = (s - q) / det
    u2sq = (p - r) / det
    u1c, u2c = math.sqrt(u1sq), math.sqrt(u2sq)
    corners_u = [(u1c, u2c), (-u1c, u2c), (-u1c, -u2c), (u1c, -u2c)]
    return np.array([[_SQRT_HALF * (a + b), _SQRT_HALF * (a - b)] for a, b in corners_u])


def support_radius(model: Model, theta):
    """Boundary radius of the support along direction theta in the u-plane."""
    d = model.derived
    c = np.cos(theta)
    s = np.sin(theta)
    form = np.maximum(
        c * c / d.axis_R1 + s * s / d.axis_R2,
        c * c / d.axis_T1 + s * s / d.axis_T2,
    )
    return 1.0 / np.sqrt(form)


def support_boundary(model: Model, n: int = 512) -> np.ndarray:
    """Closed boundary polyline of the support, (n, 2) velocity points."""
    if n < 3:
        raise ValueError(f"polyline needs at least 3 points, got {n}")
    theta = 2.0 * math.pi * np.arange(n) / n
    rad = support_radius(model, theta)
    u1 = rad * np.cos(theta)
    u2 = rad * np.sin(theta)
    return np.stack([_SQRT_HALF * (u1 + u2), _SQRT_HALF * (u1 - u2)], axis=1)


def _terms_from_u(model: Model, u1, u2):
    """A, B, E_R, E_T and D_quarter at rotated coordinates u.

    g = 1 - tau^2 solves A g^2 - 2 B g + D_J = 0, with quarter discriminant
    D_quarter = B^2 - A D_J = 4 a^2 b^2 E_R E_T; E_R and E_T are the slacks
    1 - u1^2/axis_R1 - u2^2/axis_R2 of the two ellipses.
    """
    d = model.derived
    a, b = d.a, d.b
    u1sq = np.asarray(u1) ** 2
    u2sq = np.asarray(u2) ** 2
    # (1 - v1^2)(1 - v2^2) and the mixed term, rewritten in the rotated frame
    big_a = 1.0 - (u1sq + u2sq) + 0.25 * (u1sq - u2sq) ** 2
    big_b = (
        1.0
        - (a * a + b * b)
        - 0.5 * (u1sq + u2sq)
        + 0.5 * (a * a - b * b) * (u1sq - u2sq)
    )
    e_r = 1.0 - u1sq / d.axis_R1 - u2sq / d.axis_R2
    e_t = 1.0 - u1sq / d.axis_T1 - u2sq / d.axis_T2
    d_quarter = 4.0 * a * a * b * b * e_r * e_t
    return big_a, big_b, e_r, e_t, d_quarter


def _jacobian_factors(model: Model, v1, v2):
    """Inverse Jacobians (B +- sqrt(D_quarter)) / (2 A sqrt(D_quarter)) of the
    (plus, minus) families at v; (1 / ((1 - v1^2)(1 - v2^2)), 0) if degenerate."""
    if model.derived.degenerate:
        plus = 1.0 / ((1.0 - v1 * v1) * (1.0 - v2 * v2))
        return plus, np.zeros_like(plus)
    u1, u2 = rotated_coords(v1, v2)
    big_a, big_b, _, _, d_quarter = _terms_from_u(model, u1, u2)
    root = np.sqrt(np.maximum(d_quarter, 0.0))
    return (big_b + root) / (2.0 * big_a * root), (big_b - root) / (2.0 * big_a * root)


def jacobian_inverse(model: Model, v1: float, v2: float, sign: int) -> float:
    """|J|^-1 for the + (sign=+1, even m) or - (sign=-1, odd m) branch family.

    For degenerate models the minus family carries no weight and the plus
    family reduces to 1 / ((1 - v1^2)(1 - v2^2)).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if support_contains(model, v1, v2) != "inside":
        raise OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    with np.errstate(divide="ignore", invalid="ignore"):
        plus, minus = _jacobian_factors(model, np.float64(v1), np.float64(v2))
    value = float(plus if sign == 1 else minus)
    if not math.isfinite(value):
        raise OutsideSupportError(
            f"({v1}, {v2}) lies on an ellipse boundary where the Jacobian diverges"
        )
    return value


def jacobian_forward(model: Model, k1: float, k2: float) -> float:
    """|J|(k): absolute Jacobian determinant of the band-1 velocity map."""
    d = model.derived
    a, b = d.a, d.b
    _, _, c1, _, c2, _, tau = angle_terms(model, k1, k2)
    gap_sq = 1.0 - float(tau) ** 2
    if gap_sq <= DEGENERATE_GAP_TOL:
        raise OutsideSupportError(
            f"velocity map undefined at spectrally degenerate k = ({k1}, {k2})"
        )
    quad = a * b * float(c2) ** 2 + (1.0 - a * a - b * b) * float(c1) * float(c2) + a * b * float(c1) ** 2
    return 4.0 * a * b * abs(quad) / gap_sq**2


def _sector_of(c1, c2, j_plus):
    """Sector index 1..4 of the cosine pair; ties go to the lower index."""
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    low_a = c1 <= j_plus * c2  # on or below the line c1 = j_plus * c2
    high_b = c2 >= j_plus * c1  # on or above the line c2 = j_plus * c1
    low_b = c2 <= j_plus * c1
    return np.where(
        low_a & high_b, 1, np.where(low_a & low_b, 2, np.where(low_b, 3, 4))
    )


def _branch_labels(model: Model, k1, k2):
    """Branch labels (n, m, is_r) of band-1 wavenumber arrays, is_r meaning s == "R";
    windmill-square and sector ties resolve to the lowest admissible index."""
    l1, l2, c1, _, c2, _, _ = angle_terms(model, k1, k2)
    l1r = wrap_angle(l1)
    l2r = wrap_angle(l2)
    parity = (np.rint((l1 - l1r) / (2 * _PI)) + np.rint((l2 - l2r) / (2 * _PI))) % 2
    n = np.zeros(np.shape(l1), dtype=np.int64)
    for sq in range(8, 0, -1):  # descending, so a tie keeps the lowest square
        lo1, hi1, lo2, hi2 = _REGION_BOXES[sq]
        for off1 in (-1, 0, 1):
            for off2 in (-1, 0, 1):
                cand1 = l1r + 2 * _PI * off1
                cand2 = l2r + 2 * _PI * off2
                hit = (parity == (off1 + off2) % 2) & (lo1 <= cand1) & (cand1 <= hi1)
                n = np.where(hit & (lo2 <= cand2) & (cand2 <= hi2), sq, n)
    return n, _sector_of(c1, c2, model.derived.j_plus), np.abs(c2) <= np.abs(c1)


def classify_branch(model: Model, k1: float, k2: float) -> Branch:
    """Branch label of a wavenumber under the forward map, with p = 1.

    Windmill-square and sector ties resolve to the lowest admissible index.
    """
    n, m, is_r = _branch_labels(model, k1, k2)
    return Branch(n=int(n), m=int(m), s="R" if is_r else "T", p=1)


# angle reconstruction per windmill square: l_i from arccos values in [0, pi]
def _angles_for_square(n, arc1, arc2):
    if n == 1:
        return arc1, arc2
    if n == 2:
        return -arc1, arc2
    if n == 3:
        return -arc1, -arc2
    if n == 4:
        return arc1, -arc2
    if n == 5:
        return arc1 - 2 * _PI, arc2
    if n == 6:
        return -arc1, arc2 - 2 * _PI
    if n == 7:
        return 2 * _PI - arc1, -arc2
    return arc1, 2 * _PI - arc2  # n == 8


def branch_preimages(model: Model, v1, v2, n: int, m: int, p: int):
    """Vectorized preimage construction for one (n, m, p) slot.

    Returns (k1, k2, ok): wavenumbers in [-pi, pi)^2 and a boolean mask of the
    points where this slot produces a preimage whose forward velocity
    reproduces the target within 1e-9.  Entries with ok == False hold junk.
    """
    d = model.derived
    a, b = d.a, d.b
    band_sign = 1.0 if p == 1 else -1.0
    w1 = band_sign * np.asarray(v1, dtype=np.float64)
    w2 = band_sign * np.asarray(v2, dtype=np.float64)
    u1, u2 = rotated_coords(w1, w2)
    sg1, sg2 = _REGION_SIGNS[n]
    ok = (sg1 * u1 >= 0.0) & (sg2 * u2 >= 0.0)
    big_a, big_b, _, _, d_quarter = _terms_from_u(model, u1, u2)
    ok &= d_quarter >= -1e-15
    root = np.sqrt(np.maximum(d_quarter, 0.0))
    gap_sq = (big_b + root if m % 2 == 0 else big_b - root) / big_a  # 1 - tau^2
    ok &= gap_sq > DEGENERATE_GAP_TOL
    safe_gap = np.where(ok, gap_sq, 0.0)
    c1sq = 1.0 - safe_gap * u1 * u1 / (2.0 * a * a)
    c2sq = 1.0 - safe_gap * u2 * u2 / (2.0 * b * b)
    ok &= (c1sq > -1e-12) & (c2sq > -1e-12)
    c1sq = np.clip(c1sq, 0.0, 1.0)
    c2sq = np.clip(c2sq, 0.0, 1.0)
    mag1 = np.sqrt(c1sq)
    mag2 = np.sqrt(c2sq)
    # the product c1 * c2 is determined by tau^2; it fixes the relative sign
    prod = (a * a * c1sq + b * b * c2sq - (1.0 - safe_gap)) / (2.0 * a * b)
    rel = np.where(prod >= 0.0, 1.0, -1.0)
    # of the two antipodal sign choices, keep the one lying in sector m
    first = _sector_of(mag1, rel * mag2, d.j_plus) == m
    second = _sector_of(-mag1, -rel * mag2, d.j_plus) == m
    ok &= first | second
    pick = np.where(first, 1.0, -1.0)
    c1 = pick * mag1
    c2 = pick * rel * mag2
    l1, l2 = _angles_for_square(n, np.arccos(c1), np.arccos(c2))
    k1 = wrap_angle(0.5 * (l1 - l2) - d.phi_1)
    k2 = wrap_angle(0.5 * (l1 + l2) - d.phi_2)
    # authoritative gate: the forward map must reproduce the target velocity
    _, _, _, s1f, _, s2f, tauf = angle_terms(model, k1, k2)
    gap_f = np.sqrt(np.maximum(1.0 - tauf * tauf, DEGENERATE_GAP_TOL))
    f1 = -(a * s1f + b * s2f) / gap_f
    f2 = -(a * s1f - b * s2f) / gap_f
    ok &= (np.abs(f1 - w1) <= FORWARD_CONSISTENCY_TOL) & (
        np.abs(f2 - w2) <= FORWARD_CONSISTENCY_TOL
    )
    return k1, k2, ok


def _inverse_labelled(model: Model, v1, v2, n, m, is_r):
    """Band-1 preimages (k1, k2, ok) of v under labels (n, m, is_r), arrays or scalars.

    ok is False off the open support, where an even-m label demands the other
    shape, or where ``branch_preimages`` finds no preimage for the label.
    """
    d = model.derived
    u1, u2 = rotated_coords(v1, v2)
    gate = _inside_mask(model, u1, u2)
    gate &= (m % 2 == 1) | (is_r == (d.a * np.abs(u2) >= d.b * np.abs(u1)))
    k1 = np.zeros(gate.shape)
    k2 = np.zeros(gate.shape)
    ok = np.zeros(gate.shape, dtype=bool)
    for sq in range(1, 9):
        for sec in range(1, 5):
            idx = np.nonzero(gate & (n == sq) & (m == sec))[0]
            if idx.size:
                k1[idx], k2[idx], ok[idx] = branch_preimages(model, v1[idx], v2[idx], sq, sec, 1)
    return k1, k2, ok


def inverse_map(model: Model, v1: float, v2: float, branch: Branch):
    """Wavenumber of the preimage labelled by ``branch`` at interior v.

    Raises OutsideSupportError off the open support and BranchError when the
    branch has no preimage there (wrong u-quadrant, wrong shape for even m,
    or a failed forward-consistency check).
    """
    if support_contains(model, v1, v2) != "inside":
        raise OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    band_sign = 1.0 if branch.p == 1 else -1.0
    k1, k2, ok = _inverse_labelled(model, np.array([band_sign * v1]), np.array([band_sign * v2]),
                                   branch.n, branch.m, branch.s == "R")
    if not ok[0]:
        raise BranchError(f"branch {branch} has no preimage at ({v1}, {v2})")
    return float(k1[0]), float(k2[0])


def _torus_dist(a1, a2, b1, b2):
    """Max-norm distance between wavenumber pairs on the torus."""
    d1 = np.abs(wrap_angle(a1 - b1))
    d2 = np.abs(wrap_angle(a2 - b2))
    return np.maximum(d1, d2)


@dataclass
class DensityGrid:
    """Vectorized density evaluation over a set of velocity points."""

    f: np.ndarray  # density values; zero where not evaluable
    inside: np.ndarray  # strictly inside the open support
    evaluable: np.ndarray  # inside and outside the E_R * E_T boundary shell
    branch_plus: np.ndarray  # contributing branches with even m per point
    branch_minus: np.ndarray  # contributing branches with odd m per point


def density_grid(model: Model, spectrum, v1, v2) -> DensityGrid:
    """Evaluate the limit density at many velocity points at once.

    Points outside the open support, or inside but with E_R * E_T < 1e-14
    (the boundary shell where the Jacobian blows up), get f = 0 and are
    flagged through the masks.  Only the remaining (evaluable) points are
    enumerated, and each (p, n) slot only on those of them whose band-p
    rotated coordinates lie in square n's closed u-quadrant.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    shape = np.broadcast_shapes(v1.shape, v2.shape)
    fv1 = np.broadcast_to(v1, shape).ravel()
    fv2 = np.broadcast_to(v2, shape).ravel()
    u1, u2 = rotated_coords(fv1, fv2)
    inside = _inside_mask(model, u1, u2)
    _, _, e_r, e_t, _ = _terms_from_u(model, u1, u2)
    evaluable = inside & (e_r * e_t >= SHELL_FLOOR)
    points = np.nonzero(evaluable)[0]
    accumulate = _accumulate_degenerate if model.derived.degenerate else _accumulate_generic
    f = np.zeros(fv1.shape)
    n_plus = np.zeros(fv1.shape, dtype=np.int64)
    n_minus = np.zeros(fv1.shape, dtype=np.int64)
    f[points], n_plus[points], n_minus[points] = accumulate(
        model, spectrum, fv1[points], fv2[points]
    )
    return DensityGrid(
        f=f.reshape(shape),
        inside=inside.reshape(shape),
        evaluable=evaluable.reshape(shape),
        branch_plus=n_plus.reshape(shape),
        branch_minus=n_minus.reshape(shape),
    )


def _preimage_slots(model: Model, v1, v2):
    """Yield (p, n, m, idx, k1, k2, ok) for every (p, n, m) slot in that order.

    Slot (p, n, m) runs ``branch_preimages`` only on the points idx whose
    band-p rotated coordinates pass square n's closed quadrant gate, computed
    exactly as that routine's first gate, so points on the rotated axes reach
    both adjacent squares.  A (p, n) pair with no such point is skipped.
    """
    for p in (1, 2):
        band_sign = 1.0 if p == 1 else -1.0
        u1, u2 = rotated_coords(band_sign * v1, band_sign * v2)
        for n in range(1, 9):
            sg1, sg2 = _REGION_SIGNS[n]
            idx = np.nonzero((sg1 * u1 >= 0.0) & (sg2 * u2 >= 0.0))[0]
            if idx.size == 0:
                continue
            s1, s2 = v1[idx], v2[idx]
            for m in range(1, 5):
                k1, k2, ok = branch_preimages(model, s1, s2, n, m, p)
                yield p, n, m, idx, k1, k2, ok


def _keep_new(idx, k1, k2, kept):
    """Mask of the preimages (k1, k2) at points idx that repeat none in ``kept``.

    ``kept`` holds (idx, k1, k2) triples with sorted idx; two preimages at the
    same point repeat when closer than DEDUP_K_TOL on the torus.  The new
    preimages are appended to ``kept``.
    """
    new = np.ones(idx.shape, dtype=bool)
    for kidx, kk1, kk2 in kept:
        at = np.minimum(np.searchsorted(kidx, idx), kidx.size - 1)
        new &= ~((kidx[at] == idx) & (_torus_dist(k1, k2, kk1[at], kk2[at]) < DEDUP_K_TOL))
    if new.any():
        kept.append((idx[new], k1[new], k2[new]))
    return new


def _add_branches(model, spectrum, p, idx, k1, k2, jinv, f, count):
    """Add band-p weight times inverse Jacobian of preimages (k1, k2) at points idx."""
    if idx.size:
        w1, w2 = band_weights(model, spectrum, k1, k2)
        f[idx] += (w1 if p == 1 else w2) * jinv[idx]
        count[idx] += 1


def _accumulate_generic(model, spectrum, v1, v2):
    """f and the (plus, minus) branch counts at evaluable points of a generic model."""
    jinv = _jacobian_factors(model, v1, v2)  # indexed by m % 2: plus, minus
    f = np.zeros(v1.shape)
    counts = (np.zeros(v1.shape, dtype=np.int64), np.zeros(v1.shape, dtype=np.int64))
    # On the rotated axes the reconstructed angles sit on shared corners of
    # adjacent wavenumber squares, so neighbouring region slots can emit the
    # same preimage; those (measure-zero) points get a per-band k-dedup.
    u1, u2 = rotated_coords(v1, v2)
    edge = (np.abs(u1) < 1e-7) | (np.abs(u2) < 1e-7)
    kept = {1: [], 2: []}
    for p, _, m, idx, k1, k2, ok in _preimage_slots(model, v1, v2):
        at = np.nonzero(ok & edge[idx])[0]
        if at.size:
            ok[at] = _keep_new(idx[at], k1[at], k2[at], kept[p])
        _add_branches(model, spectrum, p, idx[ok], k1[ok], k2[ok], jinv[m % 2], f, counts[m % 2])
    return f, counts[0], counts[1]


def _accumulate_degenerate(model, spectrum, v1, v2):
    """Degenerate models: single Jacobian, duplicate preimages merged.

    All surviving branches carry the Jacobian 1 / ((1-v1^2)(1-v2^2)) and count
    as plus; two preimages closer than 1e-7 on the wavenumber torus count
    once, whichever band they come from.
    """
    jinv, _ = _jacobian_factors(model, v1, v2)
    f = np.zeros(v1.shape)
    n_plus = np.zeros(v1.shape, dtype=np.int64)
    kept = []
    for p, _, _, idx, k1, k2, ok in _preimage_slots(model, v1, v2):
        at = np.nonzero(ok)[0]
        ok[at] = _keep_new(idx[at], k1[at], k2[at], kept)
        _add_branches(model, spectrum, p, idx[ok], k1[ok], k2[ok], jinv, f, n_plus)
    return f, n_plus, np.zeros_like(n_plus)


def density(model: Model, spectrum, v1: float, v2: float) -> float:
    """Limit density f at one interior velocity point.

    The probability density with respect to dv is f / (2 pi)^2.  Points not
    strictly inside the support, or within the boundary shell
    E_R * E_T < 1e-14, are refused.
    """
    if support_contains(model, v1, v2) != "inside":
        raise OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    grid = density_grid(model, spectrum, np.array([v1]), np.array([v2]))
    if not bool(grid.evaluable[0]):
        raise OutsideSupportError(
            f"({v1}, {v2}) falls in the boundary shell where the Jacobian diverges"
        )
    return float(grid.f[0])


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature of the density (optionally weighted) over the support."""

    value: complex  # integral over the excised region, / (2 pi)^2
    shell_estimate: complex  # estimated mass of the excised boundary shell
    total: complex  # value + shell_estimate


def integrate_density(
    model: Model,
    spectrum,
    weight=None,
    n_theta: int = 64,
    n_rad: int = 64,
    shell: float = _QUADRATURE_SHELL,
) -> IntegralResult:
    """Integrate f(v) weight(v) dv / (2 pi)^2 over the support.

    Polar quadrature in the rotated frame: Gauss-Legendre in angle on each
    arc between ellipse crossings, and in radius after the substitution
    rho = rho_b - w^2 that removes the inverse-square-root blowup at the
    boundary.  A shell of width ``shell`` at the boundary is excised and its
    mass estimated from the boundary asymptotics; the estimate is reported
    and included in ``total``.
    """
    return _integrate_on(_quadrature_arcs(model, spectrum, n_theta, n_rad, shell), weight)


@dataclass(frozen=True)
class _QuadratureArc:
    """The nodes of one arc of ``integrate_density`` with f evaluated on them."""

    f: np.ndarray  # density at the (angle, radius) nodes
    v1: np.ndarray
    v2: np.ndarray
    rho: np.ndarray
    w: np.ndarray  # radial nodes w, rho = rho_b - w^2
    w_weight: np.ndarray  # radial Gauss-Legendre weights times the w half-width
    th_w: np.ndarray  # angular Gauss-Legendre weights times the arc half-width
    shell_f: np.ndarray  # density at the inner edge of the excised shell
    shell_v1: np.ndarray
    shell_v2: np.ndarray
    eps: np.ndarray  # shell width per angle
    rho_b: np.ndarray  # boundary radius per angle


def _quadrature_arcs(model: Model, spectrum, n_theta: int, n_rad: int,
                     shell: float = _QUADRATURE_SHELL):
    """Build the quadrature nodes of every arc and evaluate f on them once."""
    corners = support_corners(model)
    if corners.shape[0]:
        cu1, cu2 = rotated_coords(corners[:, 0], corners[:, 1])
        cang = np.sort(np.mod(np.arctan2(cu2, cu1), 2.0 * math.pi))
    else:
        cang = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    edges = np.concatenate([cang, [cang[0] + 2.0 * math.pi]])
    gx, gw = np.polynomial.legendre.leggauss(n_theta)
    rx, rw = np.polynomial.legendre.leggauss(n_rad)
    arcs = []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        theta = 0.5 * (right + left) + half * gx
        rho_b = support_radius(model, theta)
        # radius rho = rho_b - w^2 with w from sqrt(shell) to sqrt(rho_b)
        w_lo = np.sqrt(np.minimum(shell, rho_b))
        w_hi = np.sqrt(rho_b)
        w_half = 0.5 * (w_hi - w_lo)
        w_mid = 0.5 * (w_hi + w_lo)
        w_nodes = w_mid[:, None] + w_half[:, None] * rx[None, :]
        rho = rho_b[:, None] - w_nodes**2
        u1 = rho * np.cos(theta)[:, None]
        u2 = rho * np.sin(theta)[:, None]
        p1 = _SQRT_HALF * (u1 + u2)
        p2 = _SQRT_HALF * (u1 - u2)
        # boundary asymptotics f ~ c / sqrt(rho_b - rho) give the shell mass
        eps = np.minimum(shell, rho_b)
        e1 = (rho_b - eps) * np.cos(theta)
        e2 = (rho_b - eps) * np.sin(theta)
        q1 = _SQRT_HALF * (e1 + e2)
        q2 = _SQRT_HALF * (e1 - e2)
        arcs.append(_QuadratureArc(
            f=density_grid(model, spectrum, p1, p2).f, v1=p1, v2=p2, rho=rho, w=w_nodes,
            w_weight=w_half[:, None] * rw[None, :], th_w=half * gw,
            shell_f=density_grid(model, spectrum, q1, q2).f, shell_v1=q1, shell_v2=q2,
            eps=eps, rho_b=rho_b))
    return arcs


def _integrate_on(arcs, weight=None) -> IntegralResult:
    """``integrate_density`` on the arcs of ``_quadrature_arcs``, for one weight."""
    total = 0.0 + 0.0j
    shell_mass = 0.0 + 0.0j
    inv_two_pi_sq = 1.0 / (2.0 * math.pi) ** 2
    for arc in arcs:
        vals = arc.f * (weight(arc.v1, arc.v2) if weight is not None else 1.0)
        # d rho = -2 w d w; the radial integrand is f * wt * rho * 2w
        radial = np.sum(vals * arc.rho * 2.0 * arc.w * arc.w_weight, axis=1)
        total += np.sum(radial * arc.th_w)
        evals = arc.shell_f * (weight(arc.shell_v1, arc.shell_v2) if weight is not None else 1.0)
        shell_mass += np.sum(2.0 * evals * arc.eps * arc.rho_b * arc.th_w)
    value = total * inv_two_pi_sq
    shell_est = shell_mass * inv_two_pi_sq
    if weight is None:
        value = value.real
        shell_est = shell_est.real
    return IntegralResult(value=value, shell_estimate=shell_est, total=value + shell_est)


def reference_ellipse_grover(a_param: float, v1, v2):
    """Membership in the known support ellipse of the Grover-coin walk family.

    (v1 + v2)^2 / (4 a) + (v1 - v2)^2 / (4 (1 - a)) < 1 with a = a_param.
    """
    if not 0.0 < a_param < 1.0:
        raise ValueError(f"a_param must lie in (0, 1), got {a_param}")
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    form = (v1 + v2) ** 2 / (4.0 * a_param) + (v1 - v2) ** 2 / (4.0 * (1.0 - a_param))
    out = form < 1.0
    if out.ndim == 0:
        return bool(out)
    return out


# published octant bookkeeping, kept as a soft diagnostic only
_TABLE_OCTANT_SETS = {
    1: ({3, 7}, {1, 5}),
    2: ({4, 8}, {2, 6}),
    3: ({1, 5}, {3, 7}),
    4: ({2, 6}, {4, 8}),
}


def _octant_of(v1: float, v2: float) -> int:
    if abs(v1) <= abs(v2) and v1 >= 0:
        return 1
    if abs(v1) >= abs(v2) and v2 >= 0:
        return 2
    if abs(v1) <= abs(v2) and v1 <= 0:
        return 3
    return 4


def weight_table_report(model: Model, v1: float, v2: float) -> dict:
    """Compare enumerated preimage regions against the published octant table.

    The published per-octant windmill-square sets disagree with the quadrant
    geometry of the rotated frame on generic points, so mismatches here are
    expected and informational; the enumeration itself is validated by the
    forward map, not by this table.
    """
    octant = _octant_of(v1, v2)
    expected_p1, expected_p2 = _TABLE_OCTANT_SETS[octant]
    actual: dict[int, set[int]] = {1: set(), 2: set()}
    for p, n, _, _, _, _, ok in _preimage_slots(model, np.array([v1]), np.array([v2])):
        if ok[0]:
            actual[p].add(n)
    return {
        "octant": octant,
        "expected_band1": sorted(expected_p1),
        "expected_band2": sorted(expected_p2),
        "actual_band1": sorted(actual[1]),
        "actual_band2": sorted(actual[2]),
        "matches": actual[1] == expected_p1 and actual[2] == expected_p2,
    }
