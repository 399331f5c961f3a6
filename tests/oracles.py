"""Scalar reference implementations kept as test oracles.

These are the per-sample loops that ``limit`` and ``verify`` used before the
branch labels, the labelled inversion and the round trip became array code,
and the quadrature that evaluated the density once per weight.  The code that
replaced them must reproduce them exactly.
"""

import math

import numpy as np

from altwalk import limit
from altwalk.model import wrap_angle
from altwalk.spectral import angle_terms


def scalar_classify_branch(model, k1, k2):
    """Windmill square by a loop over 8 squares x 9 translates, lowest index first."""
    l1, l2, c1, _, c2, _, _ = angle_terms(model, k1, k2)
    l1, l2, c1, c2 = float(l1), float(l2), float(c1), float(c2)
    l1r = float(wrap_angle(l1))
    l2r = float(wrap_angle(l2))
    parity = (round((l1 - l1r) / (2 * math.pi)) + round((l2 - l2r) / (2 * math.pi))) % 2
    n_found = None
    for n in range(1, 9):
        lo1, hi1, lo2, hi2 = limit._REGION_BOXES[n]
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
    m = int(limit._sector_of(c1, c2, model.derived.j_plus))
    s = "R" if abs(c2) <= abs(c1) else "T"
    return limit.Branch(n=n_found, m=m, s=s, p=1)


def scalar_inverse_map(model, v1, v2, branch):
    """Shape gate for even m, then a one-point ``branch_preimages`` call in band p."""
    if limit.support_contains(model, v1, v2) != "inside":
        raise limit.OutsideSupportError(f"({v1}, {v2}) is not strictly inside the support")
    d = model.derived
    band_sign = 1.0 if branch.p == 1 else -1.0
    u1, u2 = limit.rotated_coords(band_sign * v1, band_sign * v2)
    if branch.m % 2 == 0:
        u_shape = "R" if d.a * abs(u2) >= d.b * abs(u1) else "T"
        if branch.s != u_shape:
            raise limit.BranchError(f"branch {branch} demands the other shape")
    k1, k2, ok = limit.branch_preimages(
        model, np.array([v1]), np.array([v2]), branch.n, branch.m, branch.p
    )
    if not bool(ok[0]):
        raise limit.BranchError(f"branch {branch} has no preimage at ({v1}, {v2})")
    return float(k1[0]), float(k2[0])


def scalar_roundtrip_worst(model, samples, rng):
    """One draw at a time until ``samples`` round trips succeed."""
    worst = 0.0
    excluded = 0
    done = 0
    while done < samples:
        k1, k2 = rng.uniform(-math.pi, math.pi, size=2)
        v1, v2 = (float(x) for x in limit.forward_map(model, k1, k2))
        if limit.support_contains(model, v1, v2) != "inside":
            excluded += 1
            continue
        try:
            branch = scalar_classify_branch(model, k1, k2)
            r1, r2 = scalar_inverse_map(model, v1, v2, branch)
        except (limit.BranchError, limit.OutsideSupportError):
            excluded += 1
            continue
        worst = max(worst, limit._torus_dist(k1, k2, r1, r2))
        done += 1
    return worst, excluded


def scalar_weight_table_sets(model, v1, v2):
    """Windmill squares with a preimage per band, from all 64 slots ungated."""
    actual = {1: set(), 2: set()}
    for p in (1, 2):
        for n in range(1, 9):
            for m in range(1, 5):
                _, _, ok = limit.branch_preimages(model, np.array([v1]), np.array([v2]), n, m, p)
                if bool(ok[0]):
                    actual[p].add(n)
    return actual


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
