"""Exact simulation of the alternate-coin walk on a growing dense window.

State layout
------------
A walker state is a dense complex128 array of shape (2, n1, n2): component
index first, then the two lattice axes.  The window covers the integer
rectangle [x1_min, x1_min + n1 - 1] x [x2_min, x2_min + n2 - 1].  One time
step applies coin 1, shift 1, coin 2, shift 2 in that order; each shift grows
the window by one site on both ends of its axis, so after t steps from a
single site the window is the closed ball of radius t in each axis and all
amplitude outside it is exactly zero.

A shift along axis q moves component 1 to x - e_q and component 2 to x + e_q.
Every step thus moves each site by +-1 on both axes, so the four parity
classes ``amps[:, p::2, q::2]`` never mix: ``evolve`` steps each occupied
class on its own half-resolution grid, in place, and writes the classes back
into the dense window once at the end.  From one site only one class is ever
nonzero, and the other three are skipped.

Binary dump layout (little-endian): four int32 window bounds
(x1_min, x1_max, x2_min, x2_max), then the amplitudes as complex float64
pairs, row-major over sites (x1 outer, x2 inner) with the two spin components
adjacent per site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeState",
    "PositionDistribution",
    "Moments",
    "initial_state_delta",
    "initial_state_from_sites",
    "step",
    "evolve",
    "trajectory",
    "position_distribution",
    "moments",
    "write_distribution_csv",
    "write_state_binary",
    "read_state_binary",
]


@dataclass
class LatticeState:
    """Spinor field on a finite window of the integer plane."""

    amps: np.ndarray  # complex128, shape (2, n1, n2)
    x1_min: int
    x2_min: int
    time: int

    @property
    def x1_max(self) -> int:
        return self.x1_min + self.amps.shape[1] - 1

    @property
    def x2_max(self) -> int:
        return self.x2_min + self.amps.shape[2] - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def amplitude(self, x1: int, x2: int) -> np.ndarray:
        """Spinor at a site; zero outside the stored window."""
        if self.x1_min <= x1 <= self.x1_max and self.x2_min <= x2 <= self.x2_max:
            return self.amps[:, x1 - self.x1_min, x2 - self.x2_min].copy()
        return np.zeros(2, dtype=np.complex128)


@dataclass
class PositionDistribution:
    """Site probabilities |psi_1|^2 + |psi_2|^2 over the state's window."""

    probs: np.ndarray  # float64, shape (n1, n2)
    x1_min: int
    x2_min: int
    time: int

    @property
    def x1_max(self) -> int:
        return self.x1_min + self.probs.shape[0] - 1

    @property
    def x2_max(self) -> int:
        return self.x2_min + self.probs.shape[1] - 1

    def items(self):
        """Yield ((x1, x2), probability) for every site with nonzero weight."""
        idx1, idx2 = np.nonzero(self.probs)
        for i, j in zip(idx1.tolist(), idx2.tolist()):
            yield (self.x1_min + i, self.x2_min + j), float(self.probs[i, j])

    def total(self) -> float:
        return float(self.probs.sum())


@dataclass
class Moments:
    """First and second moments of the rescaled position X/t."""

    mean: np.ndarray  # shape (2,)
    second: np.ndarray  # shape (2, 2), E[(X_i/t)(X_j/t)]


def initial_state_delta(spinor) -> LatticeState:
    """Unit-norm spinor concentrated at the origin at time 0."""
    spinor = np.asarray(spinor, dtype=np.complex128)
    if spinor.shape != (2,):
        raise ValueError(f"spinor must have shape (2,), got {spinor.shape}")
    if abs(float(np.sum(np.abs(spinor) ** 2)) - 1.0) > 1e-12:
        raise ValueError("initial spinor must have unit norm within 1e-12")
    amps = spinor.reshape(2, 1, 1).copy()
    return LatticeState(amps=amps, x1_min=0, x2_min=0, time=0)


def initial_state_from_sites(site_amps: dict) -> LatticeState:
    """State at time 0 from a mapping (x1, x2) -> (psi_1, psi_2)."""
    if not site_amps:
        raise ValueError("at least one site is required")
    xs1 = [x1 for x1, _ in site_amps]
    xs2 = [x2 for _, x2 in site_amps]
    x1_min, x2_min = min(xs1), min(xs2)
    amps = np.zeros((2, max(xs1) - x1_min + 1, max(xs2) - x2_min + 1), dtype=np.complex128)
    for (x1, x2), spinor in site_amps.items():
        amps[:, x1 - x1_min, x2 - x2_min] = np.asarray(spinor, dtype=np.complex128)
    return LatticeState(amps=amps, x1_min=x1_min, x2_min=x2_min, time=0)


def _coin_shift(c: np.ndarray, src: np.ndarray, dst: np.ndarray, axis: int) -> None:
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
    # c[r, 0] * a0 + c[r, 1] * a1 as a dense step computes it.  No product is taken in
    # place: numpy may then use its scalar loop, which rounds unlike its vector loop.
    np.multiply(c[0, 0], a0, out=lo)
    np.multiply(c[1, 0], a0, out=hi)
    np.multiply(c[0, 1], a1, out=a0)
    np.add(lo, a0, out=lo)
    np.multiply(c[1, 1], a1, out=a0)
    np.add(hi, a0, out=hi)


def evolve(model, state: LatticeState, t: int) -> LatticeState:
    """Advance the state by t >= 0 full steps, one parity class at a time."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    c1, c2 = model.coin_matrix(1), model.coin_matrix(2)
    _, n1, n2 = state.amps.shape
    out = np.zeros((2, n1 + 2 * t, n2 + 2 * t), dtype=np.complex128)
    cur = np.empty((2, (n1 + 1) // 2 + t, (n2 + 1) // 2 + t), dtype=np.complex128)
    nxt = np.empty_like(cur)
    for p in (0, 1):
        for q in (0, 1):
            cls = state.amps[:, p::2, q::2]
            if not np.any(cls):
                continue
            _, m1, m2 = cls.shape
            cur[:, :m1, :m2] = cls
            for _ in range(t):
                _coin_shift(c1, cur[:, :m1, :m2], nxt[:, : m1 + 1, :m2], 1)
                m1 += 1
                _coin_shift(c2, nxt[:, :m1, :m2], cur[:, :m1, : m2 + 1], 2)
                m2 += 1
            out[:, p::2, q::2] = cur[:, :m1, :m2]
    return LatticeState(
        amps=out, x1_min=state.x1_min - t, x2_min=state.x2_min - t, time=state.time + t
    )


def trajectory(model, state0: LatticeState, times):
    """Yield the state ``t`` steps after ``state0`` for each t of ``times``, sorted.

    One chained ``evolve`` pass: each snapshot is evolved from the one before,
    which gives the same amplitudes bit for bit as evolving ``state0`` directly,
    and only the current state is kept.  A repeated time yields the same state
    again; time 0 yields ``state0`` itself.
    """
    state, prev = state0, 0
    for t in sorted(times):
        if t != prev:
            state = evolve(model, state, t - prev)
            prev = t
        yield state


def step(model, state: LatticeState) -> LatticeState:
    """One full time step: coin 1, shift 1, coin 2, shift 2."""
    return evolve(model, state, 1)


def position_distribution(state: LatticeState) -> PositionDistribution:
    probs = np.abs(state.amps[0]) ** 2 + np.abs(state.amps[1]) ** 2
    return PositionDistribution(
        probs=probs, x1_min=state.x1_min, x2_min=state.x2_min, time=state.time
    )


def moments(dist: PositionDistribution) -> Moments:
    """Mean and second moments of X/t; the walk must have run at least one step."""
    if dist.time <= 0:
        raise ValueError("moments in velocity units require time >= 1")
    t = float(dist.time)
    v1 = (dist.x1_min + np.arange(dist.probs.shape[0])) / t
    v2 = (dist.x2_min + np.arange(dist.probs.shape[1])) / t
    p1 = dist.probs.sum(axis=1)  # marginal over axis 2
    p2 = dist.probs.sum(axis=0)
    mean = np.array([np.dot(p1, v1), np.dot(p2, v2)])
    m11 = float(np.dot(p1, v1 * v1))
    m22 = float(np.dot(p2, v2 * v2))
    m12 = float(v1 @ dist.probs @ v2)
    return Moments(mean=mean, second=np.array([[m11, m12], [m12, m22]]))


def write_distribution_csv(dist: PositionDistribution, path) -> None:
    """CSV rows x1,x2,probability for nonzero sites, in row-major site order."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x1,x2,probability\n")
        idx1, idx2 = np.nonzero(dist.probs)
        for i, j in zip(idx1.tolist(), idx2.tolist()):
            fh.write(
                f"{dist.x1_min + i},{dist.x2_min + j},{dist.probs[i, j]:.17g}\n"
            )


def write_state_binary(state: LatticeState, path) -> None:
    """Dump a state in the binary layout described in the module docstring."""
    header = np.array(
        [state.x1_min, state.x1_max, state.x2_min, state.x2_max], dtype="<i4"
    )
    # (n1, n2, 2) C-order puts the two components of a site next to each other
    body = np.ascontiguousarray(state.amps.transpose(1, 2, 0)).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(body.tobytes())


def read_state_binary(path, time: int = 0) -> LatticeState:
    """Inverse of ``write_state_binary``; the time tag is not stored on disk."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the 16-byte header")
    x1_min, x1_max, x2_min, x2_max = np.frombuffer(raw[:16], dtype="<i4").tolist()
    if x1_max < x1_min or x2_max < x2_min:
        raise ValueError(f"{path}: empty window [{x1_min}, {x1_max}] x [{x2_min}, {x2_max}]")
    n1 = x1_max - x1_min + 1
    n2 = x2_max - x2_min + 1
    if len(raw) - 16 != 32 * n1 * n2:
        raise ValueError(f"{path}: body of {len(raw) - 16} bytes, expected {32 * n1 * n2}")
    body = np.frombuffer(raw[16:], dtype="<c16").reshape(n1, n2, 2)
    return LatticeState(
        amps=np.ascontiguousarray(body.transpose(2, 0, 1)).astype(np.complex128),
        x1_min=x1_min,
        x2_min=x2_min,
        time=time,
    )
