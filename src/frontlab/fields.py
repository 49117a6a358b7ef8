"""Spatial grids, field snapshots on a truncated moving window, and the
monotone profile interpolant with constant far fields."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class SolverError(RuntimeError):
    """A computed solution broke down (exit 3); bad arguments and config
    values raise ValueError (exit 2)."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with n nodes."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 nodes")
        if self.x_max <= self.x_min:
            raise ValueError("empty grid interval")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class FieldState:
    """A spatial profile u(.) at time t, with far-field constants.

    The far-field pair (u_left, u_right) extends u beyond the window for
    convolutions; front runs use (1, 0).  The optional co-state w tracks
    the spatial derivative u_x.  A leading lane axis, u of shape (B, n)
    with far fields of shape (B,), holds B profiles on the same window.
    """

    t: float
    x: np.ndarray
    u: np.ndarray
    u_left: float = 1.0
    u_right: float = 0.0
    w: np.ndarray | None = None

    def __post_init__(self):
        if self.x.shape != self.u.shape[-1:]:
            raise ValueError("x and u shape mismatch")
        if self.w is not None and self.w.shape != self.u.shape:
            raise ValueError("w shape mismatch")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def with_(self, **kw) -> "FieldState":
        return replace(self, **kw)

    def lane(self, i: int) -> "FieldState":
        """Lane i of a multi-lane state, as a single-lane state."""
        return replace(self, u=self.u[i], u_left=float(self.u_left[i]),
                       u_right=float(self.u_right[i]),
                       w=None if self.w is None else self.w[i])

    def is_monotone(self, tol: float = 1e-10) -> bool:
        return bool(np.all(np.diff(self.u) <= tol))


def smoothed_step(grid: Grid, center: float = 0.0,
                  width: float = 2.0) -> FieldState:
    """Front-like datum at t = 0, decaying from 1 to 0 around `center`."""
    u = 0.5 * (1.0 - np.tanh((grid.x - center) / width))
    return FieldState(t=0.0, x=grid.x, u=u, u_left=1.0, u_right=0.0)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clamped to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_cells(x: np.ndarray, y: np.ndarray):
    """Monotone PCHIP (Fritsch & Carlson 1980) of samples y(x), bit for bit
    scipy's PchipInterpolator: slopes d and coefficients c1, c0 with
    y[i] + d[i] s + c1[i] s^2 + c0[i] s^3 on cell i, s = x - x[i].  An
    interior slope reads only the two cells beside its node."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.empty(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[1:-1][np.sign(m[:-1]) * np.sign(m[1:]) <= 0] = 0.0  # extremum, flat
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return d, (m - d[:-1]) / h - t, t / h


def pchip_far_fields(x: np.ndarray, y: np.ndarray, left: float, right: float):
    """PCHIP of samples y(x), the constant `left` below x[0], `right` above."""
    d, c1, c0 = pchip_cells(x, y)

    def fn(xq):
        xq = np.asarray(xq, dtype=float)
        xc = np.clip(xq, x[0], x[-1])  # far queries stay finite
        i = np.clip(np.searchsorted(x, xc, side="right") - 1, 0, x.size - 2)
        s = xc - x[i]
        cubic = y[i] + d[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
        return np.where(xq < x[0], left, np.where(xq > x[-1], right, cubic))

    return fn


def profile_interp(snap: FieldState):
    """A snapshot's PCHIP interpolant with its far fields."""
    return pchip_far_fields(snap.x, snap.u, snap.u_left, snap.u_right)
