"""Interface tracking and front diagnostics.

Level crossings are roots of the monotone PCHIP profile interpolant,
which keeps the crossing map order-preserving.  Tail rates come from
least-squares lines on the log-magnitude of the far field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, SolverError, pchip_cells
from .kernels import Kernel


def locate_level(field: FieldState, lam: float, strict: bool = True) -> float:
    """Crossing position of a front profile: the root of its PCHIP
    interpolant, monotone there, in the first cell that brackets lam.

    With strict=True the field must be monotone nonincreasing and the
    crossing is unique; strict=False returns the first downward crossing
    (used for window steering of transiently perturbed profiles).
    """
    u, x = field.u, field.x
    if not (field.u_left > lam > field.u_right) or u[0] <= lam or u[-1] >= lam:
        raise SolverError(f"level {lam} not bracketed by the field")
    if strict and not field.is_monotone(tol=1e-8):
        raise SolverError("field is not monotone nonincreasing")
    j = int(np.argmax(u < lam))  # u[j-1] >= lam > u[j]
    # nodes j-2..j+1 give cell j-1 the slopes of the whole field's build
    lo = max(j - 2, 0)
    d, c1, c0 = (float(c[j - 1 - lo])
                 for c in pchip_cells(x[lo:j + 2], u[lo:j + 2]))
    p0, h = float(u[j - 1] - lam), float(x[j] - x[j - 1])
    # Newton from the chord's root, bisecting when a step leaves [a, b]
    a, b, s = 0.0, h, h * p0 / (p0 - float(u[j] - lam))
    for _ in range(100):
        p = p0 + s * (d + s * (c1 + s * c0))
        a, b = (s, b) if p > 0.0 else (a, s)
        slope = d + s * (2.0 * c1 + 3.0 * c0 * s)
        nxt = s - p / slope if slope < 0.0 else a
        nxt = nxt if a < nxt < b else 0.5 * (a + b)
        if p == 0.0 or nxt == s:
            break
        s = nxt
    return float(x[j - 1] + s)


def interface_width(field: FieldState, eps: float) -> float:
    """Diameter of the set {eps <= u <= 1-eps} for a monotone front."""
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    return locate_level(field, eps) - locate_level(field, 1.0 - eps)


@dataclass
class TailFit:
    rate: float
    amplitude: float
    window: tuple
    r_squared: float


#: the |v| of the points that a tail fit uses
MAGNITUDE_BAND = (1e-10, 1e-2)


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
                         values: np.ndarray | None = None) -> TailFit:
    """Least-squares exponential rate of a far-field tail.

    For the right side the model is A*exp(-rate*x); for the left side the
    fitted quantity decays toward -infinity, i.e. |v| ~ A*exp(+rate*x).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    v = field.u if values is None else values
    x = field.x
    mask = np.ones(x.size, dtype=bool)
    if x_from is not None:
        mask &= x >= x_from
    if x_to is not None:
        mask &= x <= x_to
    mag = np.abs(v)
    mask &= (mag >= MAGNITUDE_BAND[0]) & (mag <= MAGNITUDE_BAND[1])
    if np.count_nonzero(mask) < 8:
        raise SolverError("fewer than 8 usable points in the tail window")
    sgn = np.sign(v[mask])
    if np.any(sgn != sgn[0]):
        raise SolverError("sign changes inside the tail window")
    xs = x[mask]
    slope, intercept, r2 = fit_line(xs, np.log(mag[mask]))
    rate = -slope if side == "right" else slope
    return TailFit(rate=float(rate),
                   amplitude=float(math.exp(intercept)),
                   window=(float(xs[0]), float(xs[-1])),
                   r_squared=float(r2))


def on_interval(x: np.ndarray, v: np.ndarray, lo: float,
                hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear interpolant of v on exactly [lo, hi]: the nodes
    strictly inside plus both interpolated ends."""
    inside = (x > lo) & (x < hi)
    xs = np.concatenate(([lo], x[inside], [hi]))
    vs = np.concatenate(([np.interp(lo, x, v)], v[inside],
                         [np.interp(hi, x, v)]))
    return xs, vs


def steepness(field: FieldState, center: float, half_width: float) -> float:
    """Max of u_x over [center-M, center+M]; negative for steep fronts."""
    if field.w is None:
        raise ValueError("steepness needs the derivative co-state")
    lo, hi = center - half_width, center + half_width
    if lo < field.x[0] or hi > field.x[-1]:
        raise ValueError("steepness interval outside the window")
    return float(np.max(on_interval(field.x, field.w, lo, hi)[1]))


#: cap on the kernel self-convolution order N
ITERATION_CAP = 32


def steepness_bound_constant(kernel: Kernel, c_fu: float,
                             dt: float) -> tuple[float, int]:
    """(C, N), C = inf(J^N on [-1, 1]) * exp(-(1+K) dt) * (dt/N)^N for
    the least N whose stencil reaches 1 and whose J^N is positive there."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    h, samples = kernel.spacing, kernel.samples
    for order in range(1, ITERATION_CAP + 1):
        if order > 1:
            samples = np.convolve(samples, kernel.samples) * h
        k = samples.size // 2
        if k * h < 1.0:
            continue
        _, vals = on_interval(np.arange(-k, k + 1) * h, samples, -1.0, 1.0)
        inf_val = float(np.min(vals))
        if inf_val > 0.0:
            return (inf_val * math.exp(-(1.0 + c_fu) * dt)
                    * (dt / order) ** order, order)
    raise ValueError("no iteration order achieves positivity on the interval")


def check_steepness_bound(w_before: FieldState, w_after: FieldState,
                          const: float, x: float) -> tuple[float, float]:
    """Evaluate w(t0+dt, x) vs C * integral of w(t0, .) over [x-1, x+1].

    Returns (lhs, rhs); the bound holds when lhs <= rhs (+ tolerance).
    """
    if w_before.w is None or w_after.w is None:
        raise ValueError("snapshots must carry the derivative co-state")
    lhs = float(np.interp(x, w_after.x, w_after.w))
    xs, ws = on_interval(w_before.x, w_before.w, x - 1.0, x + 1.0)
    return lhs, const * float(np.trapezoid(ws, xs))
