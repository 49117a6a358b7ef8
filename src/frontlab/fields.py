"""Spatial grids, field snapshots on a truncated moving window, and the
monotone profile interpolant with constant far fields."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import PchipInterpolator


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


def constant_field(grid: Grid, value: float, t: float = 0.0) -> FieldState:
    u = np.full(grid.n, float(value))
    return FieldState(t=t, x=grid.x, u=u, u_left=value, u_right=value)


def smoothed_step(grid: Grid, center: float = 0.0, width: float = 2.0,
                  t: float = 0.0) -> FieldState:
    """Front-like initial datum decaying from 1 to 0 around `center`."""
    u = 0.5 * (1.0 - np.tanh((grid.x - center) / width))
    return FieldState(t=t, x=grid.x, u=u, u_left=1.0, u_right=0.0)


def pchip_far_fields(x: np.ndarray, y: np.ndarray, left: float,
                     right: float):
    """Monotone (PCHIP) interpolant of samples y(x), equal to the constant
    `left` below x[0] and `right` above x[-1]."""
    interp = PchipInterpolator(x, y)
    x0, x1 = x[0], x[-1]

    def fn(xq):
        xq = np.asarray(xq, dtype=float)
        out = np.empty_like(xq)
        below = xq < x0
        above = xq > x1
        mid = ~(below | above)
        out[below] = left
        out[above] = right
        out[mid] = interp(xq[mid])
        return out

    return fn
