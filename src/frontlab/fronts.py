"""Interface tracking and front diagnostics.

Level crossings are located by monotone piecewise-linear interpolation,
which keeps the crossing map order-preserving.  Tail rates come from
least-squares lines on the log-magnitude of the far field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldState
from .kernels import ITERATION_CAP, Kernel, iterated_kernels


class FrontError(ValueError):
    pass


def locate_level(field: FieldState, lam: float, strict: bool = True) -> float:
    """Crossing position of a front profile by piecewise-linear interpolation.

    With strict=True the field must be monotone nonincreasing and the
    crossing is unique; strict=False returns the first downward crossing
    (used for window steering of transiently perturbed profiles).
    """
    u = field.u
    if not (field.u_left > lam > field.u_right) or u[0] <= lam or u[-1] >= lam:
        raise FrontError(f"level {lam} not bracketed by the field")
    if strict and not field.is_monotone(tol=1e-8):
        raise FrontError("field is not monotone nonincreasing")
    # u decreasing: first index where u < lam
    j = int(np.argmax(u < lam))
    frac = (u[j - 1] - lam) / (u[j - 1] - u[j])
    return float(field.x[j - 1] + frac * (field.x[j] - field.x[j - 1]))


def interface_width(field: FieldState, eps: float) -> float:
    """Diameter of the set {eps <= u <= 1-eps} for a monotone front."""
    if not (0.0 < eps < 0.5):
        raise FrontError("eps must lie in (0, 1/2)")
    return locate_level(field, eps) - locate_level(field, 1.0 - eps)


@dataclass
class FrontTrack:
    """Level-set positions X_lambda(t) extracted from a trajectory."""

    levels: np.ndarray
    times: np.ndarray
    positions: np.ndarray  # shape (n_times, n_levels)

    def speeds(self) -> np.ndarray:
        return np.gradient(self.positions, self.times, axis=0)


def track_levels(snapshots, levels) -> FrontTrack:
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    times = np.array([s.t for s in snapshots])
    pos = np.array([[locate_level(s, lam) for lam in levels]
                    for s in snapshots])
    return FrontTrack(levels=levels, times=times, positions=pos)


@dataclass
class TailFit:
    rate: float
    amplitude: float
    window: tuple
    r_squared: float

    @property
    def accepted(self) -> bool:
        return self.rate > 0.0 and self.r_squared >= 0.98


MAGNITUDE_BAND = (1e-12, 1e-2)


def fit_line(x, y) -> tuple:
    """(slope, intercept, R^2) of the least-squares line through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def fit_exponential_tail(field: FieldState, side: str,
                         x_from: float | None = None,
                         x_to: float | None = None,
                         values: np.ndarray | None = None,
                         band: tuple = MAGNITUDE_BAND) -> TailFit:
    """Least-squares exponential rate of a far-field tail.

    For the right side the model is A*exp(-rate*x); for the left side the
    fitted quantity decays toward -infinity, i.e. |v| ~ A*exp(+rate*x).
    """
    if side not in ("left", "right"):
        raise FrontError("side must be 'left' or 'right'")
    v = field.u if values is None else values
    x = field.x
    mask = np.ones(x.size, dtype=bool)
    if x_from is not None:
        mask &= x >= x_from
    if x_to is not None:
        mask &= x <= x_to
    mag = np.abs(v)
    mask &= (mag >= band[0]) & (mag <= band[1])
    if np.count_nonzero(mask) < 8:
        raise FrontError("fewer than 8 usable points in the tail window")
    sgn = np.sign(v[mask])
    if np.any(sgn != sgn[0]):
        raise FrontError("sign changes inside the tail window")
    xs = x[mask]
    slope, intercept, r2 = fit_line(xs, np.log(mag[mask]))
    rate = -slope if side == "right" else slope
    return TailFit(rate=float(rate),
                   amplitude=float(math.exp(intercept)),
                   window=(float(xs[0]), float(xs[-1])),
                   r_squared=float(r2))


def steepness(field: FieldState, center: float, half_width: float,
              w: np.ndarray | None = None) -> float:
    """Max of u_x over [center-M, center+M]; negative for steep fronts."""
    if w is None:
        w = field.w
    if w is None:
        raise FrontError("steepness needs the derivative co-state")
    lo, hi = center - half_width, center + half_width
    if lo < field.x[0] or hi > field.x[-1]:
        raise FrontError("steepness interval outside the window")
    inside = (field.x >= lo) & (field.x <= hi)
    vals = [float(np.interp(lo, field.x, w)),
            float(np.interp(hi, field.x, w))]
    if np.any(inside):
        vals.append(float(np.max(w[inside])))
    return max(vals)


def lipschitz_estimate(values: np.ndarray, h: float) -> float:
    """Max |difference quotient| over consecutive uniform-grid samples."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise FrontError("need at least 2 samples")
    return float(np.max(np.abs(np.diff(values))) / h)


@dataclass
class SteepnessBoundConstant:
    """Constant in the interval-mean lower bound for u_x propagation."""

    K: float
    N: int
    offset: float
    half_width: float
    c_tilde: float
    dt: float

    @property
    def value(self) -> float:
        return (self.c_tilde * math.exp(-(1.0 + self.K) * self.dt)
                * (self.dt / self.N) ** self.N)


def steepness_bound_constant(kernel: Kernel, c_fu: float, dt: float,
                             offset: float,
                             half_width: float) -> SteepnessBoundConstant:
    """C = inf(J^N) * exp(-(1+K) dt) * (dt/N)^N on the offset interval."""
    if dt <= 0 or half_width <= 0:
        raise FrontError("dt and half_width must be positive")
    lo, hi = offset - half_width, offset + half_width
    for ik in iterated_kernels(kernel, ITERATION_CAP):
        xs = ik.offsets
        if lo < xs[0] or hi > xs[-1]:
            continue
        inside = (xs >= lo - ik.spacing) & (xs <= hi + ik.spacing)
        inf_val = float(np.min(ik.samples[inside]))
        if inf_val > 0.0:
            return SteepnessBoundConstant(K=c_fu, N=ik.order, offset=offset,
                                          half_width=half_width,
                                          c_tilde=inf_val, dt=dt)
    raise FrontError("no iteration order achieves positivity on the interval")


def check_steepness_bound(w_before: FieldState, w_after: FieldState,
                          const: SteepnessBoundConstant, z: float,
                          x: float, h_int: float) -> tuple[float, float]:
    """Evaluate w(t0+dt, x) vs C * trapezoid of w(t0, .) over [z-h, z+h].

    Returns (lhs, rhs); the bound holds when lhs <= rhs (+ tolerance).
    """
    if w_before.w is None or w_after.w is None:
        raise FrontError("snapshots must carry the derivative co-state")
    lhs = float(np.interp(x, w_after.x, w_after.w))
    xs = w_before.x
    inside = (xs >= z - h_int) & (xs <= z + h_int)
    grid_x = xs[inside]
    grid_w = w_before.w[inside]
    integral = float(np.trapezoid(grid_w, grid_x))
    return lhs, const.value * integral
