"""Exact simulation of the alternate-coin walk, one parity class at a time.

A walker state covers a window of the integer plane: the rectangle
[x1_min, x1_min + n1 - 1] x [x2_min, x2_min + n2 - 1], ``shape = (n1, n2)``.
One time step applies coin 1, shift 1, coin 2, shift 2 in that order; each
shift grows the window by one site on both ends of its axis, so after t steps
from a single site the window is the closed ball of radius t in each axis and
all amplitude outside it is exactly zero.

A shift along axis q moves component 1 to x - e_q and component 2 to x + e_q.
Every step thus moves each site by +-1 on both axes, so the four parity classes
of the window, the sites at offsets (p, q) + 2 (i, j) from its origin, never
mix.  States and position distributions store only their occupied classes: for
each, the offsets (p, q) and an array whose ``[..., i, j]`` holds the site
(x1_min + p + 2 i, x2_min + q + 2 j), so from one site they hold one class, a
quarter of the window.  ``amps`` and ``probs`` build the dense window when read.

``evolve`` steps each class in place in one flat (2, size) buffer at a row stride
w > m2, and returns it as a (2, m1, m2) view: cell (i, j) is flat cell i w + j, and
cells j >= m2 are a gap of zeros.  A half step is two ufunc calls per ``_CHUNK`` cells,
last chunk first: the coin's four products, then their pairwise sums into component 1
in place and component 2 moved up, w cells on axis 1 and one on axis 2, so a row's last
gap cell feeds column 0 of the next row.  The coin signs the gap's zeros, so each axis-2
half step zeroes its two new edge columns.  Before each block of ``_BLOCK_STEPS`` steps
(the first takes the rest of t) the class is re-laid, last rows first, at stride m2 +
the block's steps + 1.
"""

from __future__ import annotations

import math
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

# steps between two re-lays of a class at a tighter row stride
_BLOCK_STEPS = 16
# cells per ufunc call of a half step: two class rows and four product rows (1.2 MB) stay
# in a 2 MB L2 cache, and the calls are few, for each may hand the lock to another thread
_CHUNK = 12288
# window cells per np.sum piece (never below numpy's 128) and per block of rows built
_SUM_PIECE = 1 << 15


@dataclass(frozen=True)
class _ByClass:
    """A field of ``_dtype`` values on a window of the integer plane, by parity class."""

    classes: tuple  # (p, q, values) per occupied class; values (k, m1, m2) or (m1, m2)
    x1_min: int
    x2_min: int
    shape: tuple  # (n1, n2): the window's extent
    time: int

    def _cells(self, lo: int, hi: int) -> np.ndarray:
        """Flat cells [lo, hi) of the dense window, whose k planes stack as k n1 rows."""
        n1, n2 = self.shape
        r0, r1 = lo // n2, -(-hi // n2)
        rows = np.zeros((r1 - r0, n2), dtype=self._dtype)
        for p, q, values in self.classes:
            for c, plane in enumerate(values.reshape(-1, *values.shape[-2:])):
                top = c * n1 + p - r0  # class row i is row top + 2 i of ``rows``: keep [i0, i1)
                i0, i1 = max(0, (1 - top) // 2), min(len(plane), (r1 - r0 - top + 1) // 2)
                if i0 < i1:
                    rows[top + 2 * i0 : top + 2 * i1 : 2, q::2] = plane[i0:i1]
        return rows.reshape(-1)[lo - r0 * n2 : hi - r0 * n2]

    def _sum(self, f, n: int, lo: int = 0):
        """np.sum of ``f`` of cells [lo, lo + n), split as numpy splits a run of over 128."""
        if n <= _SUM_PIECE:
            return np.sum(f(self._cells(lo, lo + n)))
        half = n // 2 - n // 2 % 8
        return self._sum(f, half, lo) + self._sum(f, n - half, lo + half)


@dataclass(frozen=True)
class LatticeState(_ByClass):
    """Spinor field by parity class, each class complex128 of shape (2, m1, m2)."""

    _dtype = np.complex128

    @classmethod
    def from_amps(cls, amps, x1_min: int, x2_min: int, time: int) -> LatticeState:
        """State of a dense (2, n1, n2) window; classes without amplitude are dropped."""
        amps = np.asarray(amps, dtype=np.complex128)
        classes = tuple((p, q, amps[:, p::2, q::2].copy()) for p in (0, 1) for q in (0, 1)
                        if np.any(amps[:, p::2, q::2]))
        return cls(classes, x1_min, x2_min, amps.shape[1:], time)

    @property
    def amps(self) -> np.ndarray:
        """The dense complex128 window, shape (2, n1, n2), built anew on each read."""
        return self._cells(0, 2 * math.prod(self.shape)).reshape(2, *self.shape)

    def norm_sq(self) -> float:
        """``np.sum(np.abs(self.amps) ** 2)`` bit for bit, from a few rows at a time."""
        return float(self._sum(lambda a: np.abs(a) ** 2, 2 * math.prod(self.shape)))


@dataclass(frozen=True)
class PositionDistribution(_ByClass):
    """Site probabilities |psi_1|^2 + |psi_2|^2 by parity class, each float64 (m1, m2)."""

    _dtype = np.float64

    @property
    def probs(self) -> np.ndarray:
        """The dense float64 window, shape (n1, n2), built anew on each read."""
        return self._cells(0, math.prod(self.shape)).reshape(self.shape)

    def blocks(self, cells: int):
        """Yield (x1, the rows of ``probs`` from x1 on) in blocks of about ``cells`` cells."""
        n1, n2 = self.shape
        k = max(1, cells // n2)
        for r0 in range(0, n1, k):
            yield self.x1_min + r0, self._cells(r0 * n2, min(r0 + k, n1) * n2).reshape(-1, n2)

    def total(self) -> float:
        """``float(self.probs.sum())`` bit for bit, from a few rows at a time."""
        return float(self._sum(lambda a: a, math.prod(self.shape)))


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
    if not abs(float(np.sum(np.abs(spinor) ** 2)) - 1.0) <= 1e-12:  # NaN fails too
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


def _relay(buf: np.ndarray, live: np.ndarray, w: int) -> None:
    """Lay the (2, m1, m2) class ``live`` into ``buf`` at row stride ``w``, zero gap after;
    ``live`` may be ``buf``'s own class at a narrower stride, so the last rows go first."""
    _, m1, m2 = live.shape
    step = max(1, _CHUNK // w)
    for r0 in range((m1 - 1) // step * step, -1, -step):
        rows = buf[:, r0 * w : min(r0 + step, m1) * w].reshape(2, -1, w)
        rows[:, :, :m2] = live[:, r0 : r0 + step]
        rows[:, :, m2:] = 0


def _coin_shift(c: np.ndarray, buf: np.ndarray, n: int, shift: int, prod: np.ndarray) -> None:
    """Coin ``c`` on the first ``n`` cells of ``buf``, in place, last chunk first; then
    component 1 keeps its flat index and component 2 moves up ``shift`` cells."""
    # row 0 is component 1 where it is, row 1 is component 2 ``shift`` cells up
    out = np.lib.stride_tricks.as_strided(
        buf, (2, n), (buf.strides[0] + shift * buf.itemsize, buf.itemsize))
    for lo in range((n - 1) // _CHUNK * _CHUNK, -1, -_CHUNK):
        hi = min(lo + _CHUNK, n)
        p = prod[:, :, : hi - lo]
        # p[r, k] = c[r, k] a_k, a_r = p[r, 0] + p[r, 1] as a dense step has them; no product
        # in place, where numpy may use its scalar loop, which rounds unlike its vector loop
        np.multiply(c[:, :, None], buf[:, lo:hi], out=p)
        np.add(p[:, 0], p[:, 1], out=out[:, lo:hi])


def evolve(model, state: LatticeState, t: int) -> LatticeState:
    """Advance the state by t >= 0 full steps, one parity class at a time."""
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    c1, c2 = model.coin_matrix(1), model.coin_matrix(2)
    n1, n2 = state.shape
    # no block ends with more rows or a wider stride; the axis-2 shift writes one cell past
    size = ((n1 + 1) // 2 + t) * ((n2 + 1) // 2 + t + 1) + 1
    prod = np.empty((2, 2, _CHUNK), dtype=np.complex128)
    classes = []
    for p, q, live in state.classes:
        _, m1, m2 = live.shape
        buf = np.empty((2, size), dtype=np.complex128)
        for k in [t % _BLOCK_STEPS] + [_BLOCK_STEPS] * (t // _BLOCK_STEPS):
            w = m2 + k + 1
            _relay(buf, live, w)
            for _ in range(k):
                _coin_shift(c1, buf, m1 * w, w, prod)
                buf[0, m1 * w : (m1 + 1) * w] = buf[1, :w] = 0
                m1 += 1
                _coin_shift(c2, buf, m1 * w, 1, prod)
                # the new edge columns, which the gap fills with zeros of either sign
                buf[0, m2 : m1 * w : w] = buf[1, : m1 * w : w] = 0
                m2 += 1
            live = buf[:, : m1 * w].reshape(2, m1, w)[:, :, :m2]
        classes.append((p, q, live))
    window = (n1 + 2 * t, n2 + 2 * t)
    return LatticeState(tuple(classes), state.x1_min - t, state.x2_min - t, window, state.time + t)


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
    """Each class's |psi_1|^2 + |psi_2|^2 in an array of its own, a block of rows at a time."""
    classes = []
    for p, q, amps in state.classes:
        probs = np.empty(amps.shape[1:])
        step = max(1, _SUM_PIECE // probs.shape[1])
        for r0 in range(0, len(probs), step):
            out, (psi1, psi2) = probs[r0 : r0 + step], amps[:, r0 : r0 + step]
            np.square(np.abs(psi1, out=out), out=out)
            sq = np.abs(psi2)
            np.add(out, np.square(sq, out=sq), out=out)
        classes.append((p, q, probs))
    return PositionDistribution(tuple(classes), state.x1_min, state.x2_min, state.shape, state.time)


def moments(dist: PositionDistribution) -> Moments:
    """Mean and second moments of X/t; the walk must have run at least one step."""
    if dist.time <= 0:
        raise ValueError("moments in velocity units require time >= 1")
    t = float(dist.time)
    probs = dist.probs  # the dense window, built once
    v1 = (dist.x1_min + np.arange(dist.shape[0])) / t
    v2 = (dist.x2_min + np.arange(dist.shape[1])) / t
    p1 = probs.sum(axis=1)  # marginal over axis 2
    p2 = probs.sum(axis=0)
    mean = np.array([np.dot(p1, v1), np.dot(p2, v2)])
    m11 = float(np.dot(p1, v1 * v1))
    m22 = float(np.dot(p2, v2 * v2))
    m12 = float(v1 @ probs @ v2)
    return Moments(mean=mean, second=np.array([[m11, m12], [m12, m22]]))


def write_distribution_csv(dist: PositionDistribution, path) -> None:
    """CSV rows x1,x2,probability for nonzero sites, in row-major site order.

    Each row is its x1 label joined with the x2 labels of its nonzero sites (built
    once per file, each with a ``%.17g`` slot), filled with their probabilities by ``%``.
    """
    labels = [f",{dist.x2_min + j},%.17g\n" for j in range(dist.shape[1])]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x1,x2,probability\n")
        for first, rows in dist.blocks(_SUM_PIECE):
            for i, row in enumerate(rows, first):
                js = np.flatnonzero(row).tolist()
                if js:
                    x1 = str(i)
                    fh.write((x1 + x1.join([labels[j] for j in js])) % tuple(row[js].tolist()))
