"""Exact simulation of the alternate-coin walk, one parity class at a time.

State layout
------------
A walker state covers a window of the integer plane: the rectangle
[x1_min, x1_min + n1 - 1] x [x2_min, x2_min + n2 - 1], ``shape = (n1, n2)``.
One time step applies coin 1, shift 1, coin 2, shift 2 in that order; each
shift grows the window by one site on both ends of its axis, so after t steps
from a single site the window is the closed ball of radius t in each axis and
all amplitude outside it is exactly zero.

A shift along axis q moves component 1 to x - e_q and component 2 to x + e_q.
Every step thus moves each site by +-1 on both axes, so the four parity classes
of the window, the sites at offsets (p, q) + 2 (i, j) from its origin, never
mix.  A state stores only its occupied classes: for each, the offsets (p, q)
and a complex128 array of shape (2, m1, m2), component index first, whose
``[:, i, j]`` is the spinor at (x1_min + p + 2 i, x2_min + q + 2 j).  A class
with no nonzero amplitude is not stored, so from one site the state holds one
class, a quarter of the window.  ``evolve`` steps each class on its own
half-resolution grid and returns it in the buffer it was stepped in.
``norm_sq`` and ``position_distribution`` square the classes into a
zero-filled real window, so their sums run in the dense order and keep every
bit; ``LatticeState.amps`` builds the dense (2, n1, n2) window on demand.
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
    "evolve",
    "trajectory",
    "position_distribution",
    "moments",
    "write_distribution_csv",
]


@dataclass(frozen=True)
class LatticeState:
    """Spinor field on a finite window of the integer plane, by parity class."""

    classes: tuple  # (p, q, amps) per occupied class; amps complex128, shape (2, m1, m2)
    x1_min: int
    x2_min: int
    shape: tuple  # (n1, n2): the window's extent
    time: int

    @classmethod
    def from_amps(cls, amps, x1_min: int, x2_min: int, time: int) -> LatticeState:
        """State of a dense (2, n1, n2) window; classes without amplitude are dropped."""
        amps = np.asarray(amps, dtype=np.complex128)
        classes = tuple(
            (p, q, amps[:, p::2, q::2].copy())
            for p in (0, 1)
            for q in (0, 1)
            if np.any(amps[:, p::2, q::2])
        )
        return cls(classes, x1_min, x2_min, amps.shape[1:], time)

    @property
    def amps(self) -> np.ndarray:
        """The dense complex128 window, shape (2, n1, n2), built anew on each read."""
        out = np.zeros((2, *self.shape), dtype=np.complex128)
        for p, q, amps in self.classes:
            out[:, p::2, q::2] = amps
        return out

    @property
    def x1_max(self) -> int:
        return self.x1_min + self.shape[0] - 1

    @property
    def x2_max(self) -> int:
        return self.x2_min + self.shape[1] - 1

    def norm_sq(self) -> float:
        sq = np.zeros((2, *self.shape))
        for p, q, amps in self.classes:
            a = np.abs(amps)
            sq[:, p::2, q::2] = np.square(a, out=a)
        return float(np.sum(sq))

    def amplitude(self, x1: int, x2: int) -> np.ndarray:
        """Spinor at a site; zero outside the stored classes."""
        i1, i2 = x1 - self.x1_min, x2 - self.x2_min
        if 0 <= i1 < self.shape[0] and 0 <= i2 < self.shape[1]:
            for p, q, amps in self.classes:
                if (p, q) == (i1 % 2, i2 % 2):
                    return amps[:, i1 // 2, i2 // 2].copy()
        return np.zeros(2, dtype=np.complex128)


@dataclass
class PositionDistribution:
    """Site probabilities |psi_1|^2 + |psi_2|^2 over the state's window."""

    probs: np.ndarray  # float64, shape (n1, n2)
    x1_min: int
    x2_min: int
    time: int

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
    return initial_state_from_sites({(0, 0): spinor})


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
    return LatticeState.from_amps(amps, x1_min, x2_min, 0)


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
    n1, n2 = state.shape
    nxt = np.empty((2, (n1 + 1) // 2 + t, (n2 + 1) // 2 + t), dtype=np.complex128)
    classes = []
    for p, q, amps in state.classes:
        _, m1, m2 = amps.shape
        cur = np.empty((2, m1 + t, m2 + t), dtype=np.complex128)
        cur[:, :m1, :m2] = amps
        for _ in range(t):
            _coin_shift(c1, cur[:, :m1, :m2], nxt[:, : m1 + 1, :m2], 1)
            m1 += 1
            _coin_shift(c2, nxt[:, :m1, :m2], cur[:, :m1, : m2 + 1], 2)
            m2 += 1
        classes.append((p, q, cur))
    return LatticeState(
        tuple(classes), state.x1_min - t, state.x2_min - t, (n1 + 2 * t, n2 + 2 * t),
        state.time + t,
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


def position_distribution(state: LatticeState) -> PositionDistribution:
    # |psi_1|^2 + |psi_2|^2 per class, squared in place, added into a zero-filled window
    probs = np.zeros(state.shape)
    for p, q, amps in state.classes:
        sq = np.abs(amps)
        np.square(sq, out=sq)
        np.add(sq[0], sq[1], out=probs[p::2, q::2])
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
    """CSV rows x1,x2,probability for nonzero sites, in row-major site order.

    Each row is written at once: one template holding the x1 and x2 labels of
    its nonzero sites, filled with their probabilities by ``%``.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x1,x2,probability\n")
        for i, row in enumerate(dist.probs):
            js = np.flatnonzero(row)
            x1 = dist.x1_min + i
            template = "".join([f"{x1},{dist.x2_min + j},%.17g\n" for j in js.tolist()])
            fh.write(template % tuple(row[js].tolist()))

