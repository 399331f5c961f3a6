"""Weak-limit velocity density of the walk and its change-of-variables toolkit.

The rescaled position X_t / t converges in law to a measure with density
f(v) / (2pi)^2 supported on the intersection of two concentric ellipses.  In
the rotated frame u = ((v1 + v2)/sqrt2, (v1 - v2)/sqrt2) the two ellipses are
axis-aligned with squared semi-axes (axis_R1, axis_R2) and (axis_T1, axis_T2).

f(v) sums the preimages of v under the band-1 group-velocity map over the
slots (n, m, p), each of which gives at most one preimage per point:

* n in 1..8 picks one square of the windmill tiling of the rotated-angle
  plane (l1, l2); ``_SQUARES[n] = (s1, s2, o1, o2)`` gives its angles
  l_i = s_i arccos(c_i) + o_i, its closed box from o_i to o_i + s_i pi, and
  the u-quadrant it maps onto, with signs (-s1, -s2).
* m in 1..4 picks the root and the sign.  Odd m takes the smaller root of
  1 - tau^2 (Jacobian family "-", J > 0), even m the larger ("+", J < 0).
  The root fixes the cosine pair up to one sign: m = 1 takes cos l1 <= 0,
  m = 3 cos l1 >= 0, m = 2 the sign with c1 <= j_plus * c2 and m = 4 the
  other, so slot m's preimages lie in sector m of the (cos l1, cos l2)
  square, cut by the two lines c2 = j_plus * c1 and c1 = j_plus * c2.  The
  published shape label s (whether |c2| <= |c1|) is implied by (n, m, v).
* p in {1, 2} is the band; band-2 preimages of v are band-1 preimages of -v.

For interior velocity points exactly 16 branches produce a preimage, eight
per Jacobian sign.  Each contributes its spectral weight P_p(k) times the
inverse Jacobian, and every inverse is validated by applying the forward map
and checking the velocity is reproduced within 1e-9; branches that fail any
algebraic gate or that final check simply do not contribute.  This
enumeration is the authoritative density and the one inverse map, which
``verify``'s round trip reads too; the published region bookkeeping is
retained only as a soft cross-check (``_table_matches``, run by
``verify.check_weight_table``).

``density_grid`` masks the points in blocks and enumerates a block's evaluable points
(inside the support, outside the boundary shell) in one pass per band and u-quadrant:
squares n and n + 4 map onto it and share ``_square_roots``, and each stacks its four
m slots in one ``branch_preimages`` and one ``spectral.band_weights`` call, with the
tau the forward gate computed.  ``_accumulate`` keeps each point's (p, n, m) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, ParameterDomainError, wrap_angle
from .spectral import DEGENERATE_GAP_TOL, angle_terms, band1_velocity, band_weights

__all__ = [
    "SUPPORT_BOUNDARY_TOL",
    "OutsideSupportError",
    "DensityGrid",
    "IntegralResult",
    "rotated_coords",
    "support_contains",
    "support_corners",
    "support_radius",
    "support_boundary",
    "jacobian_forward",
    "density",
    "density_grid",
    "integrate_density",
    "reference_ellipse_grover",
]

SUPPORT_BOUNDARY_TOL = 1e-9  # half-width of the support boundary band
_SHELL_FLOOR = 1e-14  # density refuses points with E_R * E_T below this
_FORWARD_CONSISTENCY_TOL = 1e-9  # forward-map residual accepted for a preimage
_DEDUP_K_TOL = 1e-7  # torus distance below which two preimages count once
_QUADRATURE_SHELL = 1e-4  # width of the boundary shell integrate_density excises
# points per block of density_grid; a thread masks a block and enumerates it in one
# _accumulate call, whose stacked slots set the peak memory (see ROADMAP, "Measured")
_DENSITY_BLOCK = 1 << 14

_SQRT_HALF = math.sqrt(0.5)

# windmill square n -> (s1, s2, o1, o2), as the module docstring reads them
_PI = math.pi
_SQUARES = {
    1: (1.0, 1.0, 0.0, 0.0),
    2: (-1.0, 1.0, 0.0, 0.0),
    3: (-1.0, -1.0, 0.0, 0.0),
    4: (1.0, -1.0, 0.0, 0.0),
    5: (1.0, 1.0, -2 * _PI, 0.0),
    6: (-1.0, 1.0, 0.0, -2 * _PI),
    7: (-1.0, -1.0, 2 * _PI, 0.0),
    8: (1.0, -1.0, 0.0, 2 * _PI),
}


class OutsideSupportError(ValueError):
    """Raised when a velocity point is not strictly inside the limit support."""


def rotated_coords(v1, v2):
    """Rotate (v1, v2) into the ellipse-aligned frame; the map is involutory."""
    v1, v2 = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    return _SQRT_HALF * (v1 + v2), _SQRT_HALF * (v1 - v2)


def _axes(model: Model):
    """(axis_R1, axis_R2, axis_T1, axis_T2), refused unless each is > 0: a valid
    coin with a squared modulus below about 1e-16 can round one to 0."""
    d = model.derived
    axes = d.axis_R1, d.axis_R2, d.axis_T1, d.axis_T2
    if not all(axis > 0.0 for axis in axes):
        raise ParameterDomainError(
            f"a coin modulus this small rounds a support axis to 0: (R1, R2, T1, T2) = {axes}")
    return axes


def _ellipse_forms(model: Model, u1, u2):
    """Quadratic forms of the two support ellipses in the rotated frame."""
    r1, r2, t1, t2 = _axes(model)
    u1sq, u2sq = np.asarray(u1) ** 2, np.asarray(u2) ** 2
    return u1sq / r1 + u2sq / r2, u1sq / t1 + u2sq / t2


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


def _inside_mask(model: Model, u1, u2):
    q_r, q_t = _ellipse_forms(model, u1, u2)
    return (q_r < 1.0 - SUPPORT_BOUNDARY_TOL) & (q_t < 1.0 - SUPPORT_BOUNDARY_TOL)


def support_corners(model: Model) -> np.ndarray:
    """Velocity coordinates of the four ellipse crossings, or an empty array.

    Degenerate models (a + b = 1) have coinciding ellipses and no corners.
    """
    r1, r2, t1, t2 = _axes(model)
    if model.derived.degenerate:
        return np.empty((0, 2))
    p, q, r, s = 1.0 / r1, 1.0 / r2, 1.0 / t1, 1.0 / t2
    det = p * s - q * r
    u1c, u2c = math.sqrt((s - q) / det), math.sqrt((p - r) / det)
    return np.stack(rotated_coords([u1c, -u1c, -u1c, u1c], [u2c, u2c, -u2c, -u2c]), axis=1)


def support_radius(model: Model, theta):
    """Boundary radius of the support along direction theta in the u-plane."""
    return 1.0 / np.sqrt(np.maximum(*_ellipse_forms(model, np.cos(theta), np.sin(theta))))


def support_boundary(model: Model, n: int = 512) -> np.ndarray:
    """Closed boundary polyline of the support, (n, 2) velocity points."""
    if n < 3:
        raise ValueError(f"polyline needs at least 3 points, got {n}")
    theta = 2.0 * math.pi * np.arange(n) / n
    rad = support_radius(model, theta)
    return np.stack(rotated_coords(rad * np.cos(theta), rad * np.sin(theta)), axis=1)


def _slacks(model: Model, u1, u2):
    """Slacks E_R and E_T, 1 - u1^2/axis_1 - u2^2/axis_2, of the two ellipses."""
    r1, r2, t1, t2 = _axes(model)
    u1sq, u2sq = np.asarray(u1) ** 2, np.asarray(u2) ** 2
    return 1.0 - u1sq / r1 - u2sq / r2, 1.0 - u1sq / t1 - u2sq / t2


def _terms_from_u(model: Model, u1, u2):
    """A, B, E_R, E_T and D_quarter at rotated coordinates u.

    g = 1 - tau^2 solves A g^2 - 2 B g + D_J = 0, with quarter discriminant
    D_quarter = B^2 - A D_J = 4 a^2 b^2 E_R E_T, with the slacks of ``_slacks``.
    """
    d = model.derived
    a, b = d.a, d.b
    u1sq = np.asarray(u1) ** 2
    u2sq = np.asarray(u2) ** 2
    # (1 - v1^2)(1 - v2^2) and the mixed term, rewritten in the rotated frame
    big_a = 1.0 - (u1sq + u2sq) + 0.25 * (u1sq - u2sq) ** 2
    big_b = 1.0 - (a * a + b * b) - 0.5 * (u1sq + u2sq) + 0.5 * (a * a - b * b) * (u1sq - u2sq)
    e_r, e_t = _slacks(model, u1, u2)
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


def _signed_jacobian(model: Model, k1, k2):
    """J(k) = det dv/dk of the band-1 velocity map, broadcast over k: negative on the
    plus family (even m), positive on the minus family.  Raises OutsideSupportError
    if any k is spectrally degenerate."""
    d = model.derived
    a, b = d.a, d.b
    _, _, c1, _, c2, _, tau = angle_terms(model, k1, k2)
    gap_sq = 1.0 - tau * tau
    if np.any(gap_sq <= DEGENERATE_GAP_TOL):
        raise OutsideSupportError(
            f"velocity map undefined at spectrally degenerate k = ({k1}, {k2})"
        )
    quad = a * b * (c2 * c2) + (1.0 - a * a - b * b) * c1 * c2 + a * b * (c1 * c1)
    return -4.0 * a * b * quad / (gap_sq * gap_sq)


def jacobian_forward(model: Model, k1, k2):
    """|J|(k), broadcast over k and refused where ``_signed_jacobian`` refuses."""
    return np.abs(_signed_jacobian(model, k1, k2))


def _in_quadrant(n, u1, u2):
    """Mask of the rotated coordinates u in square n's closed u-quadrant."""
    s1, s2, _, _ = _SQUARES[n]
    return (s1 * u1 <= 0.0) & (s2 * u2 <= 0.0)


def _square_angles(n, arc1, arc2):
    """Rotated angles (l1, l2) of square n from arccos values in [0, pi]."""
    s1, s2, o1, o2 = _SQUARES[n]  # adding a 0.0 offset would turn -0.0 into +0.0
    l1 = arc1 if s1 > 0 else -arc1
    l2 = arc2 if s2 > 0 else -arc2
    return (l1 + o1 if o1 else l1), (l2 + o2 if o2 else l2)


def _square_roots(model: Model, w1, w2, n: int):
    """Square n's sign-free work for its four m slots at the band-1 target arrays w:
    the u-quadrant gate, A, B and the root of D_quarter once, and 1 - tau^2 and the
    cosine magnitudes once per parity of m.  Returns the square (n, w1, w2, roots) of
    ``branch_preimages``, roots[m % 2] = (ok, mag1, mag2, lead, sin_sq): the gates
    passed, |cos l1|, |cos l2| signed as cos l1 cos l2, for even parity the mask
    mag1 <= j_plus * mag2 of the sign slot 2 takes (None for odd), and (sin^2 l1,
    sin^2 l2) as computed before 1 - sin^2 cancels.  Square n + 4 has the same work.
    """
    d = model.derived
    a, b = d.a, d.b
    u1, u2 = rotated_coords(w1, w2)
    gate = _in_quadrant(n, u1, u2)
    big_a, big_b, _, _, d_quarter = _terms_from_u(model, u1, u2)
    gate &= d_quarter >= -1e-15
    root = np.sqrt(np.maximum(d_quarter, 0.0))
    roots = {}
    for parity in (0, 1):
        gap_sq = (big_b + root if parity == 0 else big_b - root) / big_a  # 1 - tau^2
        ok = gate & (gap_sq > DEGENERATE_GAP_TOL)
        safe_gap = np.where(ok, gap_sq, 0.0)
        sin_sq = (safe_gap * u1 * u1 / (2.0 * a * a), safe_gap * u2 * u2 / (2.0 * b * b))
        c1sq, c2sq = 1.0 - sin_sq[0], 1.0 - sin_sq[1]
        ok &= (c1sq > -1e-12) & (c2sq > -1e-12)
        c1sq, c2sq = np.clip(c1sq, 0.0, 1.0), np.clip(c2sq, 0.0, 1.0)
        # the product c1 * c2 is determined by tau^2; it fixes the relative sign
        prod = (a * a * c1sq + b * b * c2sq - (1.0 - safe_gap)) / (2.0 * a * b)
        mag1 = np.sqrt(c1sq)
        mag2 = np.where(prod >= 0.0, 1.0, -1.0) * np.sqrt(c2sq)
        roots[parity] = (ok, mag1, mag2, None if parity else mag1 <= d.j_plus * mag2, sin_sq)
    return n, w1, w2, roots


def branch_preimages(model: Model, square):
    """Band-1 preimages of the square of ``_square_roots`` in its four (n, m) slots, as
    (4, points) arrays whose row m - 1 is slot m; band 2's of v are band 1's of w = -v.
    Slot m's cosine pair is +-(mag1, mag2): m = 1 takes cos l1 <= 0, m = 3 cos l1 >= 0,
    m = 2 the sign ``lead`` marks and m = 4 the other.  Returns (k1, k2, ok, tau):
    wavenumbers in [-pi, pi)^2, the mask of points whose preimage's forward velocity
    reproduces w within 1e-9 (junk where False), and tau at (k1, k2) as that gate
    computed it.  Angles come from arccos; where the gate refuses them, as near a
    rotated axis, they are retaken from atan2 of the uncancelled sine.
    """
    n, w1, w2, roots = square
    slots = (roots[1], roots[0], roots[1], roots[0])  # slot m's roots, by m - 1
    pick = (-1.0, np.where(roots[0][3], 1.0, -1.0), 1.0, np.where(roots[0][3], -1.0, 1.0))
    ok = np.stack([slot[0] for slot in slots])
    cos = [np.stack([sign * slot[i] for sign, slot in zip(pick, slots)]) for i in (1, 2)]
    k1, k2, tau, hit = _forward_gate(model, n, w1, w2, np.arccos(cos[0]), np.arccos(cos[1]))
    miss = np.nonzero(ok & ~hit)
    if miss[0].size:
        sin_sq = np.stack([slot[4] for slot in slots], axis=1)[:, miss[0], miss[1]]
        arcs = [np.arctan2(np.sqrt(s), c[miss]) for s, c in zip(sin_sq, cos)]
        retake = _forward_gate(model, n, w1[miss[1]], w2[miss[1]], *arcs)
        k1[miss], k2[miss], tau[miss], hit[miss] = retake
    return k1, k2, ok & hit, tau


def _forward_gate(model: Model, n: int, w1, w2, arc1, arc2):
    """(k1, k2, tau, hit) at square n's angles from the values arc in [0, pi], hit
    the authoritative gate: the forward velocity reproduces the target w within 1e-9."""
    d = model.derived
    l1, l2 = _square_angles(n, arc1, arc2)
    k1 = wrap_angle(0.5 * (l1 - l2) - d.phi_1)
    k2 = wrap_angle(0.5 * (l1 + l2) - d.phi_2)
    _, _, _, s1f, _, s2f, tauf = angle_terms(model, k1, k2)
    f1, f2 = band1_velocity(model, s1f, s2f,
                            np.sqrt(np.maximum(1.0 - tauf * tauf, DEGENERATE_GAP_TOL)))
    tol = _FORWARD_CONSISTENCY_TOL
    return k1, k2, tauf, (np.abs(f1 - w1) <= tol) & (np.abs(f2 - w2) <= tol)


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
    flagged through the masks; only the remaining (evaluable) points are
    enumerated.  The calling thread and, past one block, a helper thread draw
    blocks of ``_DENSITY_BLOCK`` points in turn, and each copies, masks and
    enumerates its own, so no broadcast input is copied whole.  Every step is
    per point, so no value depends on the blocks or the threads.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    shape = np.broadcast_shapes(v1.shape, v2.shape)
    size = math.prod(shape)
    f = np.zeros(size)
    inside = np.zeros(size, dtype=bool)
    evaluable = np.zeros(size, dtype=bool)
    n_plus = np.zeros(size, dtype=np.int8)  # a count is at most the 64 (p, n, m) slots
    n_minus = np.zeros(size, dtype=np.int8)
    blocks = iter(range(0, size, _DENSITY_BLOCK))  # one next() is one atomic C call

    def run_blocks():
        # one flat iterator of each input per thread: indexing one moves its position
        fv1 = np.broadcast_to(v1, shape).flat
        fv2 = np.broadcast_to(v2, shape).flat
        try:
            for lo in blocks:
                block = slice(lo, lo + _DENSITY_BLOCK)
                w1, w2 = fv1[block], fv2[block]
                u1, u2 = rotated_coords(w1, w2)
                inside[block] = _inside_mask(model, u1, u2)
                with np.errstate(invalid="ignore"):  # an infinite v is outside, not an error
                    e_r, e_t = _slacks(model, u1, u2)
                evaluable[block] = inside[block] & (e_r * e_t >= _SHELL_FLOOR)
                del u1, u2, e_r, e_t  # freed before _accumulate's temporaries
                at = np.flatnonzero(evaluable[block])
                w1, w2 = w1[at], w2[at]  # the block's copies freed before _accumulate's temporaries
                if at.size:
                    out = lo + at
                    f[out], n_plus[out], n_minus[out] = _accumulate(model, spectrum, w1, w2)
        finally:
            for _ in blocks:  # after a failure, neither thread starts another block
                pass

    if size <= _DENSITY_BLOCK:
        run_blocks()
    else:  # imported here: concurrent.futures loads logging, which no other command needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:
            helper = pool.submit(run_blocks)
            run_blocks()
            helper.result()  # raises the helper's exception, if any
    return DensityGrid(*(x.reshape(shape) for x in (f, inside, evaluable, n_plus, n_minus)))


def _square_passes(model: Model, v1, v2):
    """Yield (p, n, idx, k1, k2, ok, tau) per (p, n) square with points, the arrays as
    ``branch_preimages`` stacks them, band by band and u-quadrant by u-quadrant: idx
    are the points whose w (v in band 1, -v in band 2) lies in the closed u-quadrant."""
    for p, sign in ((1, 1.0), (2, -1.0)):
        u1, u2 = rotated_coords(sign * v1, sign * v2)  # -v has the bits of -1.0 * v
        quadrants = [np.nonzero(_in_quadrant(q, u1, u2))[0] for q in range(1, 5)]
        del u1, u2
        for q, idx in enumerate(quadrants, 1):
            if idx.size:
                square = _square_roots(model, sign * v1[idx], sign * v2[idx], q)
                for n in (q, q + 4):
                    yield (p, n, idx, *branch_preimages(model, (n, *square[1:])))
                del square  # freed before the next u-quadrant's temporaries


def _preimage_slots(model: Model, v1, v2):
    """Yield (p, n, m, idx, k1, k2, ok, tau), one row of ``_square_passes`` each."""
    for p, n, idx, *stacked in _square_passes(model, v1, v2):
        for m in range(1, 5):
            yield (p, n, m, idx, *(x[m - 1] for x in stacked))


def _keep_new(idx, k1, k2, kept):
    """Mask of the preimages (k1, k2) at the distinct, sorted points idx that
    repeat none in ``kept``, the list [idx, k1, k2] of the kept preimages sorted by
    idx: two at one point repeat when closer than _DEDUP_K_TOL on the torus.  All
    pairs at shared points are measured at once; the new ones merge into ``kept``.
    """
    kidx, kk1, kk2 = kept
    lo = np.searchsorted(kidx, idx, side="left")
    hi = np.searchsorted(kidx, idx, side="right")
    count = hi - lo
    pair_new = np.repeat(np.arange(idx.size), count)
    pair_kept = np.arange(pair_new.size) - np.repeat(np.cumsum(count) - count - lo, count)
    near = _torus_dist(k1[pair_new], k2[pair_new], kk1[pair_kept], kk2[pair_kept]) < _DEDUP_K_TOL
    new = np.ones(idx.shape, dtype=bool)
    new[pair_new[near]] = False
    kept[:] = [np.insert(old, hi[new], add[new]) for old, add in zip(kept, (idx, k1, k2))]
    return new


def _accumulate(model, spectrum, v1, v2):
    """f and the (plus, minus) branch counts at evaluable points, each point's terms
    added in (p, n, m) order.  A degenerate model has only the plus family.

    Preimages of one band closer than _DEDUP_K_TOL on the torus count once; they repeat
    only where u1 or u2 is 0, in two u-quadrants, so only there are they sought, after
    the passes.  No repeat is sought across the bands: at v = 0 both weights count.
    """
    jinv = np.stack(_jacobian_factors(model, v1, v2))  # indexed by family: plus, minus
    family = np.array([0, 0, 0, 0] if model.derived.degenerate else [1, 0, 1, 0])  # by m - 1
    f = np.zeros(v1.shape)
    counts = np.zeros((2,) + v1.shape, dtype=np.int8)  # (plus, minus)

    def add(band1, idx, row, k1, k2, tau):  # one band_weights call; add.at keeps the order
        w1, w2 = band_weights(model, spectrum, k1, k2, tau)
        np.add.at(f, idx, np.where(band1, w1, w2) * jinv[family[row], idx])
        np.add.at(counts.reshape(-1), family[row] * v1.size + idx, np.int8(1))  # a fast path
        return w1

    may_repeat = np.logical_or(*(u == 0.0 for u in rotated_coords(v1, v2)))
    on_axis = []  # ((p, n), idx + (p - 1) * size, m - 1, k1, k2, tau); sorted() by (p, n)
    for p, n, idx, k1, k2, ok, tau in _square_passes(model, v1, v2):
        on = ok & may_repeat[idx]
        if on.any():
            row, at = np.nonzero(on)
            on_axis.append(((p, n), idx[at] + (p - 1) * v1.size, row, k1[on], k2[on], tau[on]))
            ok &= ~on
        (row, at), k1, k2, tau = np.divmod(np.flatnonzero(ok), idx.size), k1[ok], k2[ok], tau[ok]
        # allocated last, held stays until the next square's has been added: above the freed
        # temporaries, it keeps glibc from trimming them, so the next square reuses them
        held = add(p == 1, idx[at], row, k1, k2, tau)  # 800^2 minor faults: 151k to 72k
        del k1, k2, tau, ok  # the rebinding above freed the stacked slots before band_weights
    if on_axis:  # sorted by (p, idx), stably, so each point's preimages in (n, m) order
        point, row, k1, k2, tau = (np.concatenate(x) for x in list(zip(*sorted(on_axis)))[1:])
        order = np.argsort(point, kind="stable")
        point, row, k1, k2, tau = (x[order] for x in (point, row, k1, k2, tau))
        rank = np.arange(point.size) - np.searchsorted(point, point)  # r-th ones deduped at once
        keep, kept = np.empty(point.size, dtype=bool), [point[:0], k1[:0], k2[:0]]
        for r in range(rank.max() + 1):
            at = np.flatnonzero(rank == r)
            keep[at] = _keep_new(point[at], k1[at], k2[at], kept)
        add(point[keep] < v1.size, point[keep] % v1.size, row[keep], k1[keep], k2[keep], tau[keep])
    return f, counts[0], counts[1]


def density(model: Model, spectrum, v1: float, v2: float) -> float:
    """Limit density f at one interior velocity point.

    The probability density with respect to dv is f / (2 pi)^2.  Points not
    strictly inside the support, or within the boundary shell
    E_R * E_T < 1e-14, are refused.
    """
    grid = density_grid(model, spectrum, np.array([v1]), np.array([v2]))
    if not grid.inside[0]:
        raise OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    if not grid.evaluable[0]:
        raise OutsideSupportError(f"({v1}, {v2}) falls in the boundary shell "
                                  "where the Jacobian diverges")
    return float(grid.f[0])


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature of the density (optionally weighted) over the support."""

    value: complex  # integral over the excised region, / (2 pi)^2
    shell_estimate: complex  # estimated mass of the excised boundary shell
    total: complex  # value + shell_estimate


def integrate_density(model: Model, spectrum, weights=(None,), n_theta: int = 64,
                      n_rad: int = 64) -> list[IntegralResult]:
    """Integrate f(v) weight(v) dv / (2 pi)^2 over the support.

    Polar quadrature in the rotated frame: Gauss-Legendre in angle on each
    arc between ellipse crossings, and in radius after the substitution
    rho = rho_b - w^2 that removes the inverse-square-root blowup at the
    boundary.  A shell of width ``_QUADRATURE_SHELL`` at the boundary is
    excised and its mass estimated from the boundary asymptotics; the
    estimate is reported and included in ``total``.

    ``weights`` holds callables of (v1, v2) arrays, None meaning weight 1.
    Returns one ``IntegralResult`` per entry: f is evaluated once per arc and
    every weight summed on it, with the same bits as one call each.
    """
    corners = support_corners(model)
    if corners.shape[0]:
        cu1, cu2 = rotated_coords(corners[:, 0], corners[:, 1])
        cang = np.sort(np.mod(np.arctan2(cu2, cu1), 2.0 * math.pi))
    else:
        cang = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    edges = np.concatenate([cang, [cang[0] + 2.0 * math.pi]])
    gx, gw = np.polynomial.legendre.leggauss(n_theta)
    rx, rw = np.polynomial.legendre.leggauss(n_rad)
    total = [0.0 + 0.0j] * len(weights)
    shell_mass = [0.0 + 0.0j] * len(weights)
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        theta = 0.5 * (right + left) + half * gx
        th_w = half * gw
        rho_b = support_radius(model, theta)
        # radius rho = rho_b - w^2 with w from sqrt(shell) to sqrt(rho_b)
        w_lo = np.sqrt(np.minimum(_QUADRATURE_SHELL, rho_b))
        w_hi = np.sqrt(rho_b)
        w_half = 0.5 * (w_hi - w_lo)
        w_mid = 0.5 * (w_hi + w_lo)
        w_nodes = w_mid[:, None] + w_half[:, None] * rx[None, :]
        w_weight = w_half[:, None] * rw[None, :]
        rho = rho_b[:, None] - w_nodes**2
        p1, p2 = rotated_coords(rho * np.cos(theta)[:, None], rho * np.sin(theta)[:, None])
        # boundary asymptotics f ~ c / sqrt(rho_b - rho) give the shell mass
        eps = np.minimum(_QUADRATURE_SHELL, rho_b)
        q1, q2 = rotated_coords((rho_b - eps) * np.cos(theta), (rho_b - eps) * np.sin(theta))
        f = density_grid(model, spectrum, p1, p2).f
        shell_f = density_grid(model, spectrum, q1, q2).f
        for i, wt in enumerate(weights):
            vals = f * (wt(p1, p2) if wt is not None else 1.0)
            # d rho = -2 w d w; the radial integrand is f * wt * rho * 2w
            radial = np.sum(vals * rho * 2.0 * w_nodes * w_weight, axis=1)
            total[i] += np.sum(radial * th_w)
            evals = shell_f * (wt(q1, q2) if wt is not None else 1.0)
            shell_mass[i] += np.sum(2.0 * evals * eps * rho_b * th_w)
    inv_two_pi_sq = 1.0 / (2.0 * math.pi) ** 2
    results = []
    for wt, arcs_sum, shell_sum in zip(weights, total, shell_mass):
        value, shell_est = arcs_sum * inv_two_pi_sq, shell_sum * inv_two_pi_sq
        if wt is None:
            value, shell_est = value.real, shell_est.real
        results.append(IntegralResult(value=value, shell_estimate=shell_est,
                                      total=value + shell_est))
    return results


def reference_ellipse_grover(a_param: float, v1, v2):
    """Membership in the known support ellipse of the Grover-coin walk family.

    (v1 + v2)^2 / (4 a) + (v1 - v2)^2 / (4 (1 - a)) < 1 with a = a_param.
    """
    if not 0.0 < a_param < 1.0:
        raise ValueError(f"a_param must lie in (0, 1), got {a_param}")
    v1, v2 = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    form = (v1 + v2) ** 2 / (4.0 * a_param) + (v1 - v2) ** 2 / (4.0 * (1.0 - a_param))
    return form < 1.0


# published octant bookkeeping, kept as a soft diagnostic only
_TABLE_OCTANT_SETS = {
    1: ({3, 7}, {1, 5}),
    2: ({4, 8}, {2, 6}),
    3: ({1, 5}, {3, 7}),
    4: ({2, 6}, {4, 8}),
}


def _octants(v1, v2):
    """Table octant 1..4 of each point: the first of the three tests it passes, else 4."""
    a1, a2 = np.abs(v1), np.abs(v2)
    return np.select([(a1 <= a2) & (v1 >= 0), (a1 >= a2) & (v2 >= 0), (a1 <= a2) & (v1 <= 0)],
                     [1, 2, 3], 4)


def _preimage_squares(model: Model, v1, v2):
    """Mask (points, band p - 1, square n - 1) of the squares that hold a preimage."""
    has = np.zeros((v1.size, 2, 8), dtype=bool)
    for p, n, _, idx, _, _, ok, _ in _preimage_slots(model, v1, v2):
        has[idx[ok], p - 1, n - 1] = True
    return has


def _table_matches(model: Model, v1, v2):
    """Whether each point's preimage squares are the octant table's, in both bands."""
    expected = np.zeros((5, 2, 8), dtype=bool)  # octant, band p - 1, square n - 1
    for octant, bands in _TABLE_OCTANT_SETS.items():
        for p, squares in enumerate(bands):
            expected[octant, p, [n - 1 for n in squares]] = True
    return (_preimage_squares(model, v1, v2) == expected[_octants(v1, v2)]).all(axis=(1, 2))
