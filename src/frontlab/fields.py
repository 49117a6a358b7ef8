"""Spatial grids, field snapshots on a truncated moving window, and the
monotone profile interpolant with constant far fields."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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


def pchip_far_fields(x: np.ndarray, y: np.ndarray, left: float,
                     right: float):
    """Monotone (PCHIP, Fritsch & Carlson 1980) interpolant of samples y(x),
    equal to the constant `left` below x[0] and `right` above x[-1].  The
    slopes and the order of the sums are those of scipy's
    PchipInterpolator, so the two agree bit for bit."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])],
                        np.where(flat, 0.0, inner),
                        [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t

    def fn(xq):
        xq = np.asarray(xq, dtype=float)
        xc = np.clip(xq, x[0], x[-1])  # far queries stay finite
        i = np.clip(np.searchsorted(x, xc, side="right") - 1, 0, x.size - 2)
        s = xc - x[i]
        cubic = y[i] + d[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
        return np.where(xq < x[0], left, np.where(xq > x[-1], right, cubic))

    return fn
