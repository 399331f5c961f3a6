"""Scalar reference implementations kept as test oracles.

These are the per-sample loops that ``limit`` and ``verify`` used before the
round trip, the Jacobian check and the weight table became array code, the
labelled round trip and Jacobian family that read the one slot a wavenumber's
label (n, m) names before both read the nearest preimage of the density's
enumeration (``nearest_band1_slot``; the family is now the sign of J), the
quadrature that evaluated the density once per weight,
the density and walk-site work done on whole arrays before it went in blocks,
the support check and characteristic function on the whole wavenumber grid
before both went in row blocks (``whole_grid_check_support``,
``whole_grid_char_function``),
the suite run on one thread, the characteristic function that built its
wavenumber grid once per xi, the band weights that always computed their own
tau, the Bloch entries built from the complex exp, the initial spectrum that
multiplied e^{-ik.x} into the amplitudes for a start at the origin too, the
CSV writers that formatted one cell or site at a time, the scalar inverse
Jacobian over ``limit._jacobian_factors``, the three literal
encodings of the windmill squares (quadrant signs, closed boxes and angle
reconstruction) that ``limit._SQUARES`` replaced, the class stepper that
stepped each parity class as a strided view of a wider buffer, the preimage
construction that redid a windmill square's sector-free work in each of its
four sector slots, the dedup that scanned one chunk of kept preimages per
earlier slot, and the density that ran each slot's preimages, dedup and band weights
on their own (``per_slot_accumulate``) before a square's four slots were stacked.
``one_slot`` reads one slot's row of a ``limit.branch_preimages`` call.  The code
that replaced them must reproduce them exactly; ``floor_wrap_angle``, the angle
reduction before the exact fmod took over what it left out of range, must be
reproduced wherever its result is in range.  The readers of single sites and
window edges (``amplitude``, ``x1_max``, ``x2_max``, ``nonzero_sites``) and the
band eigenvalues at k (``eigenvalues``) serve only the tests.  ``konno_cos`` is
a closed form from the literature that shares no code with the package,
``kgrid_moments`` the moments of the limit law as smooth k-space integrals, and
``closed_form_c`` and ``closed_form_density`` the limit density of a one-site
start as (4 + c.v) times one even base law per coin, with no preimage in it.
``bloch_vector`` and ``stokes_vector`` write the band weights in closed form,
P_1 = (|psi_hat_0|^2 + s.n)/2, which is where c comes from.
``closed_form_constants`` gives D_J, the support axes and the roots j_plus and
j_minus from the two squared moduli with no cancellation, and
``coin_grover_forms`` the two coins' own Grover ellipses, whose intersection
the support is.
``Branch`` and ``BranchError`` are the scalar label (n, m, p) and the refusal
of the scalar loops, and ``sector_of`` the sector m of a cosine pair that
``scalar_classify_branch`` labels it with; ``limit`` labels no wavenumber.
``per_slot_branch_preimages`` also keeps the sector gate that picked each slot's
sign before a fixed rule per m replaced it; the two agree wherever a preimage is
found, and only the junk entries differ.  Where the arccos angles miss the forward
gate it takes the atan2 angles it computed for the whole slot.
``DenseDistribution`` holds a position distribution as one dense window, as it was
held before it was stored by parity class, and ``dense_distribution`` squares a
state into one.
"""

import math
from dataclasses import dataclass

import numpy as np

from altwalk import cli, lattice, limit, spectral, verify
from altwalk.model import wrap_angle
from altwalk.spectral import angle_terms


# windmill square n -> expected sign quadrant of u = (sign of u1, sign of u2)
REGION_SIGNS = {
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
REGION_BOXES = {
    1: (0.0, _PI, 0.0, _PI),
    2: (-_PI, 0.0, 0.0, _PI),
    3: (-_PI, 0.0, -_PI, 0.0),
    4: (0.0, _PI, -_PI, 0.0),
    5: (-2 * _PI, -_PI, 0.0, _PI),
    6: (-_PI, 0.0, -2 * _PI, -_PI),
    7: (_PI, 2 * _PI, -_PI, 0.0),
    8: (0.0, _PI, _PI, 2 * _PI),
}


def angles_for_square(n, arc1, arc2):
    """Rotated angles of windmill square n from arccos values in [0, pi]."""
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


class BranchError(ValueError):
    """Raised when a branch tuple has no preimage at the requested velocity."""


@dataclass(frozen=True)
class Branch:
    """Preimage label (n, m, p); see the ``limit`` module docstring."""

    n: int
    m: int
    p: int

    def __post_init__(self):
        if self.n not in range(1, 9):
            raise ValueError(f"n must be in 1..8, got {self.n}")
        if self.m not in range(1, 5):
            raise ValueError(f"m must be in 1..4, got {self.m}")
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")


def sector_of(c1, c2, j_plus):
    """Sector index 1..4 of the cosine pair; ties go to the lower index."""
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    low_a = c1 <= j_plus * c2  # on or below the line c1 = j_plus * c2
    high_b = c2 >= j_plus * c1  # on or above the line c2 = j_plus * c1
    low_b = c2 <= j_plus * c1
    return np.where(
        low_a & high_b, 1, np.where(low_a & low_b, 2, np.where(low_b, 3, 4))
    )


def scalar_classify_branch(model, k1, k2):
    """Windmill square by a loop over 8 squares x 9 translates, lowest index first."""
    l1, l2, c1, _, c2, _, _ = angle_terms(model, k1, k2)
    l1, l2, c1, c2 = float(l1), float(l2), float(c1), float(c2)
    l1r = float(wrap_angle(l1))
    l2r = float(wrap_angle(l2))
    parity = (round((l1 - l1r) / (2 * math.pi)) + round((l2 - l2r) / (2 * math.pi))) % 2
    n_found = None
    for n in range(1, 9):
        lo1, hi1, lo2, hi2 = REGION_BOXES[n]
        for off1 in (-1, 0, 1):
            for off2 in (-1, 0, 1):
                if (off1 + off2) % 2 != parity:
                    continue
                cand1 = l1r + 2 * math.pi * off1
                cand2 = l2r + 2 * math.pi * off2
                if lo1 <= cand1 <= hi1 and lo2 <= cand2 <= hi2:
                    n_found = n
                    break
            if n_found:
                break
        if n_found:
            break
    if n_found is None:
        raise RuntimeError(f"windmill classification failed for l = ({l1}, {l2})")
    return Branch(n=n_found, m=int(sector_of(c1, c2, model.derived.j_plus)), p=1)


def per_slot_branch_preimages(model, w1, w2, n, m):
    """Band-1 preimages (k1, k2, ok, tau) of w for one (n, m) slot, all of whose
    work, the sector-free part too, is done for that slot alone."""
    d = model.derived
    a, b = d.a, d.b
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    u1, u2 = limit.rotated_coords(w1, w2)
    ok = limit._in_quadrant(n, u1, u2)
    big_a, big_b, _, _, d_quarter = limit._terms_from_u(model, u1, u2)
    ok &= d_quarter >= -1e-15
    root = np.sqrt(np.maximum(d_quarter, 0.0))
    gap_sq = (big_b + root if m % 2 == 0 else big_b - root) / big_a  # 1 - tau^2
    ok &= gap_sq > spectral.DEGENERATE_GAP_TOL
    safe_gap = np.where(ok, gap_sq, 0.0)
    s1sq = safe_gap * u1 * u1 / (2.0 * a * a)
    s2sq = safe_gap * u2 * u2 / (2.0 * b * b)
    c1sq = 1.0 - s1sq
    c2sq = 1.0 - s2sq
    ok &= (c1sq > -1e-12) & (c2sq > -1e-12)
    c1sq = np.clip(c1sq, 0.0, 1.0)
    c2sq = np.clip(c2sq, 0.0, 1.0)
    mag1 = np.sqrt(c1sq)
    mag2 = np.sqrt(c2sq)
    prod = (a * a * c1sq + b * b * c2sq - (1.0 - safe_gap)) / (2.0 * a * b)
    rel = np.where(prod >= 0.0, 1.0, -1.0)
    first = sector_of(mag1, rel * mag2, d.j_plus) == m
    second = sector_of(-mag1, -rel * mag2, d.j_plus) == m
    ok &= first | second
    pick = np.where(first, 1.0, -1.0)
    c1 = pick * mag1
    c2 = pick * rel * mag2

    def forward(l1, l2):
        k1 = wrap_angle(0.5 * (l1 - l2) - d.phi_1)
        k2 = wrap_angle(0.5 * (l1 + l2) - d.phi_2)
        _, _, _, s1f, _, s2f, tauf = angle_terms(model, k1, k2)
        f1, f2 = spectral.band1_velocity(
            model, s1f, s2f, np.sqrt(np.maximum(1.0 - tauf * tauf, spectral.DEGENERATE_GAP_TOL)))
        return k1, k2, tauf, (np.abs(f1 - w1) <= 1e-9) & (np.abs(f2 - w2) <= 1e-9)

    k1, k2, tauf, hit = forward(*limit._square_angles(n, np.arccos(c1), np.arccos(c2)))
    # where arccos misses, l_i from atan2 of the sine and the cosine, at every point
    # of the slot, then kept only where the arccos angles missed the gate
    retake = forward(*limit._square_angles(n, np.arctan2(np.sqrt(s1sq), c1),
                                           np.arctan2(np.sqrt(s2sq), c2)))
    miss = ok & ~hit
    k1, k2, tauf, hit = (np.where(miss, y, x) for x, y in zip((k1, k2, tauf, hit), retake))
    return k1, k2, ok & hit, tauf


def chunk_list_keep_new(idx, k1, k2, kept):
    """Dedup mask of the preimages at the sorted points idx against ``kept``, a
    list of (idx, k1, k2) chunks, one per earlier slot, scanned one by one; the
    new preimages are appended as one more chunk."""
    new = np.ones(idx.shape, dtype=bool)
    for kidx, kk1, kk2 in kept:
        at = np.minimum(np.searchsorted(kidx, idx), kidx.size - 1)
        near = limit._torus_dist(k1, k2, kk1[at], kk2[at]) < limit._DEDUP_K_TOL
        new &= ~((kidx[at] == idx) & near)
    if new.any():
        kept.append((idx[new], k1[new], k2[new]))
    return new


def per_slot_accumulate(model, spectrum, v1, v2):
    """``limit._accumulate`` one (p, n, m) slot at a time, in that order: the slot's
    row of its square's ``branch_preimages`` call, a dedup merge at the points on a
    rotated axis and a ``band_weights`` call for each slot, and each square's
    sign-free work redone for each of its two squares of a u-quadrant."""
    degenerate = model.derived.degenerate
    jinv = limit._jacobian_factors(model, v1, v2)
    f = np.zeros(v1.shape)
    counts = (np.zeros(v1.shape, dtype=np.int8), np.zeros(v1.shape, dtype=np.int8))
    u1, u2 = limit.rotated_coords(v1, v2)
    may_repeat = (u1 == 0.0) | (u2 == 0.0)
    kept = [[np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)] for _ in range(2)]
    for p, sign in ((1, 1.0), (2, -1.0)):
        w1, w2 = sign * v1, sign * v2
        for n in range(1, 9):
            idx = np.nonzero(limit._in_quadrant(n, *limit.rotated_coords(w1, w2)))[0]
            if idx.size == 0:
                continue
            stacked = limit.branch_preimages(model, limit._square_roots(model, w1[idx], w2[idx], n))
            for m in range(1, 5):
                k1, k2, ok, tau = (x[m - 1] for x in stacked)
                family = 0 if degenerate else m % 2
                at = np.nonzero(ok & may_repeat[idx])[0]
                if at.size:
                    ok[at] = limit._keep_new(idx[at], k1[at], k2[at], kept[p - 1])
                points = idx[ok]
                if points.size:
                    w = spectral.band_weights(model, spectrum, k1[ok], k2[ok], tau[ok])[p - 1]
                    f[points] += w * jinv[family][points]
                    counts[family][points] += 1
    return f, counts[0], counts[1]


def one_slot(model, w1, w2, n, m):
    """Row m - 1 of ``limit.branch_preimages``: the (n, m) slot at the band-1 targets w."""
    stacked = limit.branch_preimages(model, limit._square_roots(model, w1, w2, n))
    return tuple(x[m - 1] for x in stacked)


def scalar_inverse_map(model, v1, v2, branch):
    """A one-point ``branch_preimages`` call in band p, refused off the open support."""
    if limit.support_contains(model, v1, v2) != "inside":
        raise limit.OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    band_sign = 1.0 if branch.p == 1 else -1.0
    k1, k2, ok, _ = one_slot(
        model, np.array([band_sign * v1]), np.array([band_sign * v2]), branch.n, branch.m
    )
    if not bool(ok[0]):
        raise BranchError(f"branch {branch} has no preimage at ({v1}, {v2})")
    return float(k1[0]), float(k2[0])


def scalar_jacobian_inverse(model, v1, v2, sign):
    """|J|^-1 at one velocity for the + (sign=+1, even m) or - (sign=-1, odd m) family.

    For degenerate models the minus family carries no weight and the plus
    family reduces to 1 / ((1 - v1^2)(1 - v2^2)).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if limit.support_contains(model, v1, v2) != "inside":
        raise limit.OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    with np.errstate(divide="ignore", invalid="ignore"):
        plus, minus = limit._jacobian_factors(model, np.float64(v1), np.float64(v2))
    value = float(plus if sign == 1 else minus)
    if not math.isfinite(value):
        raise limit.OutsideSupportError(
            f"({v1}, {v2}) lies on an ellipse boundary where the Jacobian diverges"
        )
    return value


def scalar_roundtrip_worst(model, samples, rng, details, prefix):
    """One draw at a time until ``samples`` round trips succeed; the draws excluded
    go in ``details[prefix + "excluded"]``."""
    worst = 0.0
    excluded = 0
    done = 0
    while done < samples:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in spectral.group_velocity(model, k1, k2))
        if limit.support_contains(model, v1, v2) != "inside":
            excluded += 1
            continue
        try:
            branch = scalar_classify_branch(model, k1, k2)
            r1, r2 = scalar_inverse_map(model, v1, v2, branch)
        except (BranchError, limit.OutsideSupportError):
            excluded += 1
            continue
        worst = max(worst, limit._torus_dist(k1, k2, r1, r2))
        done += 1
    details[prefix + "excluded"] = excluded
    return worst


def nearest_band1_slot(model, k1, k2, v1, v2):
    """Torus distance from each k to the nearest band-1 preimage of its v that
    ``limit._preimage_slots`` finds (inf where none), and that slot's m (0 where none)."""
    dist = np.full(k1.shape, np.inf)
    found_m = np.zeros(k1.shape, dtype=np.int64)
    for p, _, m, idx, r1, r2, ok, _ in limit._preimage_slots(model, v1, v2):
        if p == 1:
            near = limit._torus_dist(k1[idx], k2[idx], r1, r2)
            closer = ok & (near < dist[idx])
            dist[idx[closer]] = near[closer]
            found_m[idx[closer]] = m
    return dist, found_m


def scalar_check_jacobian(model, samples=1000, *, seed=0):
    """``verify.check_jacobian`` drawing, gating and differencing one sample at a time,
    with each sample's family from its scalar label's m."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    fd_worst = 0.0
    excluded = 0
    accepted = []
    while len(accepted) < samples:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in spectral.group_velocity(model, k1, k2))
        if limit.support_contains(model, v1, v2) != "inside":
            excluded += 1
            continue
        jf = limit.jacobian_forward(model, k1, k2)
        if jf <= 1e-4:
            excluded += 1
            continue
        dp1 = np.array(spectral.group_velocity(model, k1 + h, k2))
        dm1 = np.array(spectral.group_velocity(model, k1 - h, k2))
        dp2 = np.array(spectral.group_velocity(model, k1, k2 + h))
        dm2 = np.array(spectral.group_velocity(model, k1, k2 - h))
        col1 = (dp1 - dm1) / (2.0 * h)
        col2 = (dp2 - dm2) / (2.0 * h)
        det = abs(col1[0] * col2[1] - col1[1] * col2[0])
        fd_worst = max(fd_worst, abs(det - jf) / jf)
        accepted.append((k1, k2, v1, v2, jf))
    m = np.array([scalar_classify_branch(model, a, b).m for a, b, *_ in accepted], dtype=np.int64)
    k1, k2, v1, v2, jf = np.array(accepted, dtype=np.float64).reshape(-1, 5).T
    plus, minus = limit._jacobian_factors(model, v1, v2)
    jinv = np.where(m % 2 == 0, plus, minus)
    br_worst = float(np.max(np.abs(jinv - 1.0 / jf) * jf, initial=0.0))
    details = {"samples": samples, "excluded": excluded, "h": h}
    return [
        verify._report("jacobian_fd", fd_worst, seed, details),
        verify._report("jacobian_branch", br_worst, seed, details),
    ]


def scalar_weight_table_sets(model, v1, v2):
    """Windmill squares with a preimage per band, from all 64 slots ungated."""
    actual = {1: set(), 2: set()}
    for p, sign in ((1, 1.0), (2, -1.0)):
        for n in range(1, 9):
            square = limit._square_roots(model, np.array([sign * v1]), np.array([sign * v2]), n)
            if limit.branch_preimages(model, square)[2].any():  # any of the four m slots
                actual[p].add(n)
    return actual


def scalar_octant(v1, v2):
    """Octant of the published weight table, one point."""
    if abs(v1) <= abs(v2) and v1 >= 0:
        return 1
    if abs(v1) >= abs(v2) and v2 >= 0:
        return 2
    if abs(v1) <= abs(v2) and v1 <= 0:
        return 3
    return 4


def scalar_table_matches(model, v1, v2):
    """Whether the windmill squares of both bands at one point are the table's."""
    actual = scalar_weight_table_sets(model, v1, v2)
    expected = limit._TABLE_OCTANT_SETS[scalar_octant(v1, v2)]
    return actual[1] == expected[0] and actual[2] == expected[1]


def scalar_check_weight_table(model, samples=200, *, seed=0):
    """``verify.check_weight_table`` drawing and testing one sample at a time."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(samples):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        frac = rng.uniform(0.05, 0.95)
        rho = frac * limit.support_radius(model, theta)
        u1 = rho * math.cos(theta)
        u2 = rho * math.sin(theta)
        v1 = (u1 + u2) / math.sqrt(2.0)
        v2 = (u1 - u2) / math.sqrt(2.0)
        if not scalar_table_matches(model, v1, v2):
            mismatches += 1
    return [verify._report("weight_table", mismatches / samples, seed,
                           {"samples": samples, "mismatches": mismatches})]


def whole_grid_analytic_bin_masses(model, spectrum, bins, refine):
    """``verify._analytic_bin_masses`` from one ``density_grid`` call over all cells."""
    n = bins * refine
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    grid = limit.density_grid(model, spectrum, mid[:, None], mid[None, :])
    cell = np.where(grid.evaluable, grid.f, 0.0) * (2.0 / n) ** 2 / (2.0 * math.pi) ** 2
    refused = grid.inside & ~grid.evaluable
    for i, j in zip(*np.nonzero(refused)):
        neigh = [cell[a, b] for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
                 if 0 <= a < n and 0 <= b < n and grid.evaluable[a, b]]
        if neigh:
            cell[i, j] = float(np.mean(neigh))
    masses = cell.reshape(bins, refine, bins, refine).sum(axis=(1, 3))
    info = {"refine": refine, "refused_cells": int(refused.sum()),
            "analytic_total": float(cell.sum())}
    return masses, info


def whole_grid_check_support(model, grid_n=512, *, seed=0):
    """``verify.check_support`` over the whole wavenumber grid at once."""
    if grid_n < 128:
        raise ValueError(f"need grid_n >= 128, got {grid_n}")
    with np.errstate(divide="ignore", invalid="ignore"):
        v1, v2 = spectral.group_velocity(model, *spectral._wavenumber_grid(grid_n))
        u1, u2 = limit.rotated_coords(v1, v2)
    d = model.derived
    q_r, q_t = limit._ellipse_forms(model, u1, u2)
    finite = np.isfinite(q_r) & np.isfinite(q_t)
    violation = float(max(0.0, np.maximum(q_r[finite], q_t[finite]).max() - 1.0))
    min_er = float((1.0 - q_r[finite]).min())
    min_et = float((1.0 - q_t[finite]).min())
    details = {"grid_n": grid_n, "min_E_R": min_er, "min_E_T": min_et,
               "singular_points": int((~finite).sum())}
    reports = [
        verify._report("support_containment", violation, seed, details),
        verify._report("support_tightness", max(min_er, min_et), seed, details),
    ]
    if d.degenerate:
        vv = -1.0 + (2.0 * np.arange(200) + 1.0) / 200.0
        w1, w2 = vv[:, None], vv[None, :]
        member = limit.reference_ellipse_grover(d.a, w1, w2)
        inside = limit._inside_mask(model, *limit.rotated_coords(w1, w2))
        mism = int(np.count_nonzero(inside != member))
        reports.append(verify._report(
            "support_ellipse_membership", mism / inside.size, seed,
            {"grid_n": 200, "mismatches": mism}))
    return reports


def whole_window_bin_masses(dist, bins):
    """The histogram ``verify._WeakLimit.observe`` keeps, over all nonzero sites at once."""
    t = dist.time
    h = 2.0 / bins
    out = np.zeros((bins, bins))
    idx1, idx2 = np.nonzero(dist.probs)
    v1 = (dist.x1_min + idx1) / t
    v2 = (dist.x2_min + idx2) / t
    b1 = np.clip(np.ceil((v1 + 1.0) / h).astype(int) - 1, 0, bins - 1)
    b2 = np.clip(np.ceil((v2 + 1.0) / h).astype(int) - 1, 0, bins - 1)
    np.add.at(out, (b1, b2), dist.probs[idx1, idx2])
    return out


def whole_window_escape_mass(model, dist, t):
    """The escape mass ``verify._WeakLimit.observe`` keeps at its last time, over all
    nonzero sites at once."""
    idx1, idx2 = np.nonzero(dist.probs)
    v1 = (dist.x1_min + idx1) / t
    v2 = (dist.x2_min + idx2) / t
    u1, u2 = limit.rotated_coords(v1, v2)
    rho = np.hypot(u1, u2)
    theta = np.arctan2(u2, u1)
    return float(dist.probs[idx1, idx2][rho > limit.support_radius(model, theta) + 0.05].sum())


def whole_window_chars(dist, t, xi_list):
    """The empirical values of ``verify._CharFunction``, one xi at a time:
    sum_x p(x) e^{i xi.x/t} over the time-t position distribution."""
    x1 = (dist.x1_min + np.arange(dist.probs.shape[0])) / t
    x2 = (dist.x2_min + np.arange(dist.probs.shape[1])) / t
    emps = []
    for xi1, xi2 in xi_list:
        phase = np.exp(1j * (xi1 * x1[:, None] + xi2 * x2[None, :]))
        emps.append(complex(np.sum(dist.probs * phase)))
    return emps


def whole_window_norm_sq(state):
    """``LatticeState.norm_sq`` squaring into a second array."""
    return float(np.sum(np.abs(state.amps) ** 2))


def whole_window_probs(state):
    """``lattice.position_distribution``'s probabilities squaring into new arrays."""
    return np.abs(state.amps[0]) ** 2 + np.abs(state.amps[1]) ** 2


@dataclass
class DenseDistribution:
    """A position distribution as the dense reference holds it: the whole (n1, n2)
    window of probabilities.  It reads as ``lattice.PositionDistribution`` does, so the
    CSV writer, ``moments`` and the ``verify`` readers take it in its place."""

    probs: np.ndarray
    x1_min: int
    x2_min: int
    time: int

    @property
    def shape(self):
        return self.probs.shape

    def blocks(self, cells):
        """``PositionDistribution.blocks`` as slices of the window."""
        k = max(1, cells // self.shape[1])
        for r0 in range(0, self.shape[0], k):
            yield self.x1_min + r0, self.probs[r0:r0 + k]

    def total(self):
        return float(self.probs.sum())


def dense_distribution(state):
    """``lattice.position_distribution`` of a state, squared over its whole dense window."""
    return DenseDistribution(whole_window_probs(state), state.x1_min, state.x2_min, state.time)


def serial_run_suite(model, spinor=None, *, seed=0, only=None, tolerances=None, state0=None):
    """``verify.run_suite`` on one thread: the walk first, then each check in order,
    then the tolerance overrides.  ``state0``, when given, is the start in place of
    the spinor at the origin, so a start of several sites can be run."""
    names = list(verify.CHECK_NAMES if only is None else dict.fromkeys(only))
    if state0 is None:
        state0 = lattice.initial_state_delta((1.0, 0.0) if spinor is None else spinor)
    runners = [verify._CHECKS[name].build(model, state0) for name in names]
    verify._observe_walk(model, state0, runners)
    reports = []
    for runner in runners:
        runner.prepare(seed)
        reports += runner.reports(seed)
    for rep in reports:
        if rep.name in (tolerances or {}):
            rep.tolerance = float(tolerances[rep.name])
    return reports


def per_weight_integrate_density(model, spectrum, weight=None, n_theta=64, n_rad=64,
                                 shell=1e-4):
    """``integrate_density`` evaluating f on each arc's nodes inside the weighted sum."""
    corners = limit.support_corners(model)
    if corners.shape[0]:
        cu1, cu2 = limit.rotated_coords(corners[:, 0], corners[:, 1])
        cang = np.sort(np.mod(np.arctan2(cu2, cu1), 2.0 * math.pi))
    else:
        cang = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    edges = np.concatenate([cang, [cang[0] + 2.0 * math.pi]])
    gx, gw = np.polynomial.legendre.leggauss(n_theta)
    rx, rw = np.polynomial.legendre.leggauss(n_rad)
    total = 0.0 + 0.0j
    shell_mass = 0.0 + 0.0j
    sqrt_half = math.sqrt(0.5)
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        theta = 0.5 * (right + left) + half * gx
        th_w = half * gw
        rho_b = limit.support_radius(model, theta)
        w_lo = np.sqrt(np.minimum(shell, rho_b))
        w_hi = np.sqrt(rho_b)
        w_half = 0.5 * (w_hi - w_lo)
        w_mid = 0.5 * (w_hi + w_lo)
        w_nodes = w_mid[:, None] + w_half[:, None] * rx[None, :]
        rho = rho_b[:, None] - w_nodes**2
        u1 = rho * np.cos(theta)[:, None]
        u2 = rho * np.sin(theta)[:, None]
        p1 = sqrt_half * (u1 + u2)
        p2 = sqrt_half * (u1 - u2)
        grid = limit.density_grid(model, spectrum, p1, p2)
        vals = grid.f * (weight(p1, p2) if weight is not None else 1.0)
        radial = np.sum(vals * rho * 2.0 * w_nodes * (w_half[:, None] * rw[None, :]), axis=1)
        total += np.sum(radial * th_w)
        eps = np.minimum(shell, rho_b)
        e1 = (rho_b - eps) * np.cos(theta)
        e2 = (rho_b - eps) * np.sin(theta)
        q1 = sqrt_half * (e1 + e2)
        q2 = sqrt_half * (e1 - e2)
        egrid = limit.density_grid(model, spectrum, q1, q2)
        evals = egrid.f * (weight(q1, q2) if weight is not None else 1.0)
        shell_mass += np.sum(2.0 * evals * eps * rho_b * th_w)
    inv_two_pi_sq = 1.0 / (2.0 * math.pi) ** 2
    value = total * inv_two_pi_sq
    shell_est = shell_mass * inv_two_pi_sq
    if weight is None:
        value = value.real
        shell_est = shell_est.real
    return limit.IntegralResult(value=value, shell_estimate=shell_est, total=value + shell_est)


def per_xi_char_function(model, spectrum, xi, grid_n):
    """``spectral.numeric_char_function`` rebuilding the whole grid for its one xi;
    returns (value, skipped)."""
    if grid_n < 1:
        raise ValueError(f"grid size must be positive, got {grid_n}")
    xi1, xi2 = float(xi[0]), float(xi[1])
    g1 = -math.pi + (2.0 * math.pi / grid_n) * np.arange(grid_n)[:, None]
    g2 = -math.pi + (2.0 * math.pi / grid_n) * np.arange(grid_n)[None, :]
    d = model.derived
    _, _, _, s1, _, s2, tau = angle_terms(model, g1, g2)
    gap_sq = 1.0 - tau * tau
    ok = gap_sq > spectral.DEGENERATE_GAP_TOL
    gap = np.sqrt(np.where(ok, gap_sq, 1.0))
    v1 = -(d.a * s1 + d.b * s2) / gap
    v2 = -(d.a * s1 - d.b * s2) / gap
    w1, w2 = spectral.band_weights(model, spectrum, g1, g2, tau)
    vals = np.exp(1j * (xi1 * v1 + xi2 * v2)) * w1 + np.exp(
        -1j * (xi1 * v1 + xi2 * v2)
    ) * w2
    n_ok = int(np.count_nonzero(ok))
    if n_ok == 0:
        raise spectral.DegeneracyError("all grid points are spectrally degenerate")
    return complex(np.sum(np.where(ok, vals, 0.0)) / n_ok), grid_n * grid_n - n_ok


def whole_grid_char_function(model, spectrum, xi, grid_n):
    """``spectral.numeric_char_function`` over the whole wavenumber grid at once."""
    if grid_n < 1:
        raise ValueError(f"grid size must be positive, got {grid_n}")
    xis = np.asarray(xi, dtype=np.float64)
    if xis.ndim != 2 or xis.shape[1] != 2:
        raise ValueError(f"xi must be a sequence of pairs, got shape {xis.shape}")
    g1, g2 = spectral._wavenumber_grid(grid_n)
    _, _, _, s1, _, s2, tau = angle_terms(model, g1, g2)
    gap_sq = 1.0 - tau * tau
    ok = gap_sq > spectral.DEGENERATE_GAP_TOL
    n_ok = int(np.count_nonzero(ok))
    if n_ok == 0:
        raise spectral.DegeneracyError("all grid points are spectrally degenerate")
    v1, v2 = spectral.band1_velocity(model, s1, s2, np.sqrt(np.where(ok, gap_sq, 1.0)))
    w1, w2 = spectral.band_weights(model, spectrum, g1, g2, tau)
    values = []
    for xi1, xi2 in xis.tolist():
        phase = xi1 * v1 + xi2 * v2
        vals = np.exp(1j * phase) * w1 + np.exp(-1j * phase) * w2
        values.append(complex(np.sum(np.where(ok, vals, 0.0)) / n_ok))
    return values, grid_n * grid_n - n_ok


def own_tau_band_weights(model, spectrum, k1, k2):
    """``spectral.band_weights`` computing tau and the eigenvalues from k itself."""
    tau = angle_terms(model, k1, k2)[6]
    gap = np.sqrt(np.maximum(1.0 - tau * tau, 0.0))
    phase = np.exp(0.5j * model.derived.delta)
    lam1, lam2 = (tau + 1j * gap) * phase, (tau - 1j * gap) * phase
    psi = spectrum(k1, k2)
    p0, p1 = psi[..., 0], psi[..., 1]
    m11, m12, m21, m22 = spectral._bloch_entries(model, k1, k2)
    ip = np.conj(p0) * (m11 * p0 + m12 * p1) + np.conj(p1) * (m21 * p0 + m22 * p1)
    nrm = np.abs(p0) ** 2 + np.abs(p1) ** 2
    # a band crossing puts all the weight in band 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = np.where(lam1 == lam2, 0.0, np.real((ip - lam2 * nrm) / (lam1 - lam2)))
    return w1, nrm - w1


def complex_exp_bloch_entries(model, k1, k2):
    """``spectral._bloch_entries`` building e^{+-ik} with np.exp(1j * k)."""
    a1, b1, a2, b2 = model.a1, model.b1, model.a2, model.b2
    e1p = np.exp(1j * np.asarray(k1))
    e1m = np.conj(e1p)
    e2p = np.exp(1j * np.asarray(k2))
    e2m = np.conj(e2p)
    phase = np.exp(0.5j * model.derived.delta)
    m11 = phase * e2p * (a2 * a1 * e1p - b2 * np.conj(b1) * e1m)
    m12 = phase * e2p * (a2 * b1 * e1p + b2 * np.conj(a1) * e1m)
    m21 = phase * e2m * (-np.conj(b2) * a1 * e1p - np.conj(a2) * np.conj(b1) * e1m)
    m22 = phase * e2m * (-np.conj(b2) * b1 * e1p + np.conj(a2) * np.conj(a1) * e1m)
    return m11, m12, m21, m22


class PhaseProductSpectrum(spectral.InitialSpectrum):
    """``spectral.InitialSpectrum`` that multiplies e^{-ik.x} into the amplitudes
    for every start, a single site at the origin included."""

    def __call__(self, k1, k2):
        k1 = np.asarray(k1, dtype=np.float64)
        k2 = np.asarray(k2, dtype=np.float64)
        shape = np.broadcast_shapes(k1.shape, k2.shape)
        phase = np.exp(
            -1j
            * (
                np.broadcast_to(k1, shape)[..., None] * self.sites[:, 0]
                + np.broadcast_to(k2, shape)[..., None] * self.sites[:, 1]
            )
        )
        return phase @ self.amps


def per_cell_density_csv(path, mid, f, inside):
    """``cli._write_density_csv`` formatting every cell of the grid."""
    labels = [cli._fmt(x) for x in mid]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v1,v2,f,inside\n")
        for i in range(len(labels)):
            fh.write("".join([
                f"{labels[i]},{label},{cli._fmt(fv)},{int(iv)}\n"
                for label, fv, iv in zip(labels, f[i].tolist(), inside[i].tolist())
            ]))


def per_site_distribution_csv(dist, path):
    """``lattice.write_distribution_csv`` from one whole-window nonzero scan, site by site."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x1,x2,probability\n")
        idx1, idx2 = np.nonzero(dist.probs)
        for i, j in zip(idx1.tolist(), idx2.tolist()):
            fh.write(
                f"{dist.x1_min + i},{dist.x2_min + j},{dist.probs[i, j]:.17g}\n"
            )


def konno_cos(q, w, n=20_000):
    """E cos(w X) under Konno's limit density of the one-dimensional walk.

    f_K(x) = sqrt(1 - q) / (pi (1 - x^2) sqrt(q - x^2)) on |x| < sqrt(q), for a
    coin with |a|^2 = q (Konno, Quantum Inf. Process. 1, 345 (2002)).  The
    substitution x = sqrt(q) sin(theta) removes the edge singularity, leaving
    sqrt(1 - q) / (pi (1 - q sin^2 theta)) on (-pi/2, pi/2), summed by an
    n-point midpoint rule.
    """
    theta = -0.5 * math.pi + math.pi * (np.arange(n) + 0.5) / n
    sin = np.sin(theta)
    f = math.sqrt(1.0 - q) / (math.pi * (1.0 - q * sin * sin))
    return float(np.sum(np.cos(w * math.sqrt(q) * sin) * f) * (math.pi / n))


def kgrid_moments(model, spectrum, n):
    """E[V] and E[V V^T] of the limit law by the midpoint rule on an n x n k-grid.

    The limit law is the pushforward of the band weights P_p(k) through the
    velocities +-v_1(k) (Grimmett, Janson and Scudo, PRE 69, 026119, 2004), so
    E[V] = mean of (P_1 - P_2) v_1 and E[V V^T] = mean of |psi_hat_0|^2 v_1 v_1^T,
    smooth periodic integrands on which the rule converges geometrically.  Band
    crossings, where v_1 is undefined, add nothing; the mean runs over all n^2 points.
    """
    g = -math.pi + (2.0 * math.pi / n) * (np.arange(n) + 0.5)
    k1, k2 = g[:, None], g[None, :]
    _, _, _, s1, _, s2, tau = angle_terms(model, k1, k2)
    gap_sq = 1.0 - tau * tau
    ok = gap_sq > spectral.DEGENERATE_GAP_TOL
    v = spectral.band1_velocity(model, s1, s2, np.sqrt(np.where(ok, gap_sq, 1.0)))
    w1, w2 = spectral.band_weights(model, spectrum, k1, k2, tau)
    mean = np.array([np.sum(np.where(ok, (w1 - w2) * vi, 0.0)) for vi in v]) / (n * n)
    second = np.array([[np.sum(np.where(ok, (w1 + w2) * vi * vj, 0.0)) for vj in v]
                       for vi in v]) / (n * n)
    return mean, second


def closed_form_c(model, spinor):
    """The vector c of the one-site start ``spinor`` in f = (4 + c.v) x base law.

    With r = Re(e^{i(alpha1 - beta1)} psi1 conj(psi2)):
    c1 = -4 r / (|a1||b1|) and
    c2 = -4 (|psi1|^2 - |psi2|^2) + 4 r (|a1|^2 - |b1|^2) / (|a1||b1|).
    Coin 2 does not enter.  Since the base law is even, c = 4 E[V V^T]^-1 E[V].
    """
    psi1, psi2 = complex(spinor[0]), complex(spinor[1])
    r = (np.exp(1j * (model.alpha1 - model.beta1)) * psi1 * np.conj(psi2)).real
    ab = model.modulus_a1 * model.modulus_b1
    c1 = -4.0 * r / ab
    c2 = (-4.0 * (abs(psi1) ** 2 - abs(psi2) ** 2)
          + 4.0 * r * (model.modulus_a1 ** 2 - model.modulus_b1 ** 2) / ab)
    return np.array([c1, c2])


def closed_form_density(model, spinor, v1, v2):
    """The limit density of a one-site start in closed form, at points inside the support.

    f = (4 + c.v) B / (A sqrt(D_quarter)) with A = (1 - v1^2)(1 - v2^2),
    B = 1 - a^2 - b^2 - (v1^2 + v2^2)/2 + (a^2 - b^2) v1 v2 and
    D_quarter = 4 a^2 b^2 E_R E_T from the slacks of the two support ellipses;
    on a flagged-degenerate coin f = (4 + c.v) / A.  B / (A sqrt(D_quarter))
    is the sum of the two Jacobian families' inverse Jacobians.
    """
    d = model.derived
    c1, c2 = closed_form_c(model, spinor)
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    affine = 4.0 + c1 * v1 + c2 * v2
    big_a = (1.0 - v1 * v1) * (1.0 - v2 * v2)
    if d.degenerate:
        return affine / big_a
    a, b = d.a, d.b
    big_b = 1.0 - a * a - b * b - 0.5 * (v1 * v1 + v2 * v2) + (a * a - b * b) * v1 * v2
    u1sq, u2sq = 0.5 * (v1 + v2) ** 2, 0.5 * (v1 - v2) ** 2
    e_r = 1.0 - u1sq / d.axis_R1 - u2sq / d.axis_R2
    e_t = 1.0 - u1sq / d.axis_T1 - u2sq / d.axis_T2
    return affine * big_b / (big_a * np.sqrt(4.0 * a * a * b * b * e_r * e_t))


def bloch_vector(model, k1, k2):
    """The band-1 Bloch vector n(k), with the band-1 projector (1 + n.sigma)/2 in
    the coin basis turned by theta = alpha1 - beta1 about z:
    n_x = (-v1 + (|a1|^2 - |b1|^2) v2) / (2 |a1||b1|), n_y = (|a2||b1| cos l1 +
    |a1||b2| cos l2) / sqrt(1 - tau^2) and n_z = -v2, with v = v_1(k).  So
    P_1 = (|psi_hat_0|^2 + s.n)/2 with the Stokes vector s of ``stokes_vector``.
    n_x and n_z depend on k only through v, and n_x^2 + n_z^2 <= 1 bounds the
    velocity image by an ellipse of coin 1 alone.
    """
    _, _, c1, s1, c2, s2, tau = angle_terms(model, k1, k2)
    gap = np.sqrt(1.0 - tau * tau)
    v1, v2 = spectral.band1_velocity(model, s1, s2, gap)
    a1, b1 = model.modulus_a1, model.modulus_b1
    n_x = (-v1 + (a1 * a1 - b1 * b1) * v2) / (2.0 * a1 * b1)
    n_y = (model.modulus_a2 * b1 * c1 + a1 * model.modulus_b2 * c2) / gap
    return n_x, n_y, -v2


def stokes_vector(model, psi):
    """(2 Re q, -2 Im q, |psi1|^2 - |psi2|^2) with q = e^{i(alpha1 - beta1)} psi1 conj(psi2),
    over the last axis of ``psi``: the Stokes vector in ``bloch_vector``'s frame."""
    psi1, psi2 = psi[..., 0], psi[..., 1]
    q = np.exp(1j * (model.alpha1 - model.beta1)) * psi1 * np.conj(psi2)
    return 2.0 * q.real, -2.0 * q.imag, np.abs(psi1) ** 2 - np.abs(psi2) ** 2


def closed_form_constants(a1_sq, a2_sq):
    """D_J, (axis_R1, axis_R2, axis_T1, axis_T2) and (j_plus, j_minus) of a coin pair
    from its squared moduli, in the arithmetic of the arguments; D_J and the axes are
    exact for ``fractions.Fraction`` arguments.

    With hi and lo the larger and smaller of |a1|^2 and |a2|^2: D_J = (hi - lo)^2,
    axis_R1 = 2 hi, axis_R2 = 2 (1 - hi), axis_T1 = 2 lo and axis_T2 = 2 (1 - lo).
    So ellipse R is the Grover ellipse (v1 + v2)^2 / (4|a|^2) + (v1 - v2)^2 / (4|b|^2)
    < 1 of the coin with the larger |a|^2, and ellipse T that of the other coin.
    j_plus = -sqrt(lo (1 - hi) / (hi (1 - lo))) and j_minus = 1 / j_plus.
    """
    hi, lo = max(a1_sq, a2_sq), min(a1_sq, a2_sq)
    axes = (2 * hi, 2 * (1 - hi), 2 * lo, 2 * (1 - lo))
    j_plus = -((lo * (1 - hi)) / (hi * (1 - lo))) ** 0.5
    return (a1_sq - a2_sq) ** 2, axes, (j_plus, 1 / j_plus)


def coin_grover_forms(model, v1, v2):
    """The Grover-ellipse forms (v1 + v2)^2 / (4 A) + (v1 - v2)^2 / (4 (1 - A)) at v of
    the coin with the larger A = |a_q|^2 and of the coin with the smaller, the forms
    whose < 1 ``limit.reference_ellipse_grover`` tests."""
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    return tuple((v1 + v2) ** 2 / (4.0 * a) + (v1 - v2) ** 2 / (4.0 * (1.0 - a))
                 for a in sorted((model.a1_sq, model.a2_sq), reverse=True))


def _strided_coin_shift(c, src, dst, axis):
    """Coin ``c`` on one class, then its axis shift into ``dst`` (``src`` is scratch).

    Component 1 keeps its class index (x - 1) and component 2 moves up one (x + 1).
    """
    a0, a1 = src[0], src[1]
    if axis == 1:
        lo, hi = dst[0, :-1], dst[1, 1:]
        dst[0, -1] = dst[1, 0] = 0
    else:
        lo, hi = dst[0, :, :-1], dst[1, :, 1:]
        dst[0, :, -1] = dst[1, :, 0] = 0
    np.multiply(c[0, 0], a0, out=lo)
    np.multiply(c[1, 0], a0, out=hi)
    np.multiply(c[0, 1], a1, out=a0)
    np.add(lo, a0, out=lo)
    np.multiply(c[1, 1], a1, out=a0)
    np.add(hi, a0, out=hi)


def strided_class_evolve(model, state, t):
    """``lattice.evolve`` on 2-D class views inside buffers of the final class size."""
    c1, c2 = model.coin_matrix(1), model.coin_matrix(2)
    n1, n2 = state.shape
    nxt = np.empty((2, (n1 + 1) // 2 + t, (n2 + 1) // 2 + t), dtype=np.complex128)
    classes = []
    for p, q, amps in state.classes:
        _, m1, m2 = amps.shape
        cur = np.empty((2, m1 + t, m2 + t), dtype=np.complex128)
        cur[:, :m1, :m2] = amps
        for _ in range(t):
            _strided_coin_shift(c1, cur[:, :m1, :m2], nxt[:, : m1 + 1, :m2], 1)
            m1 += 1
            _strided_coin_shift(c2, nxt[:, :m1, :m2], cur[:, :m1, : m2 + 1], 2)
            m2 += 1
        classes.append((p, q, cur))
    return lattice.LatticeState(
        tuple(classes), state.x1_min - t, state.x2_min - t, (n1 + 2 * t, n2 + 2 * t),
        state.time + t,
    )


def floor_wrap_angle(x):
    """The floor formula of ``model.wrap_angle``, with its one fix below odd multiples of pi."""
    r = x - 2.0 * math.pi * np.floor((x + math.pi) / (2.0 * math.pi))
    if isinstance(r, np.ndarray):
        np.add(r, 2.0 * math.pi, out=r, where=r < -math.pi)
        return r
    return r + 2.0 * math.pi if r < -math.pi else r


def eigenvalues(model, k1, k2):
    """Band eigenvalues (lam1, lam2) at wavenumbers k; band 1 takes + i sqrt(1 - tau^2)."""
    return spectral._eigenvalues_at(model, angle_terms(model, k1, k2)[6])


def x1_max(state):
    """Last x1 of a state's window."""
    return state.x1_min + state.shape[0] - 1


def x2_max(state):
    """Last x2 of a state's window."""
    return state.x2_min + state.shape[1] - 1


def amplitude(state, x1, x2):
    """Spinor of a class-backed state at a site; zero outside the stored classes."""
    i1, i2 = x1 - state.x1_min, x2 - state.x2_min
    if 0 <= i1 < state.shape[0] and 0 <= i2 < state.shape[1]:
        for p, q, amps in state.classes:
            if (p, q) == (i1 % 2, i2 % 2):
                return amps[:, i1 // 2, i2 // 2].copy()
    return np.zeros(2, dtype=np.complex128)


def nonzero_sites(dist):
    """Yield ((x1, x2), probability) for every site of a distribution with nonzero weight."""
    idx1, idx2 = np.nonzero(dist.probs)
    for i, j in zip(idx1.tolist(), idx2.tolist()):
        yield (dist.x1_min + i, dist.x2_min + j), float(dist.probs[i, j])
