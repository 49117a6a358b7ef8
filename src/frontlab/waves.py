"""Traveling-wave solver for the homogeneous problem.

Finds (c*, phi) with J*phi - phi + c* phi' + f(phi) = 0, phi(0) = theta,
phi decreasing from 1 to 0.  Strategy: evolve the time-dependent problem
from a smoothed step until the re-centered profile stops changing (the
ignition wave is attracting for front-like data), read the speed from the
crossing drift, then polish (c*, phi) with a sparse Newton iteration on
the stationary co-moving system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .fields import FieldState, Grid, pchip_far_fields, smoothed_step
from .kernels import Kernel, convolve
from .evolve import Stepper, _shift_window
from .fronts import fit_line, locate_level


class WaveError(RuntimeError):
    pass


@dataclass(frozen=True)
class TravelingWave:
    speed: float
    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    residual_norm: float
    theta: float

    def profile_fn(self):
        return pchip_far_fields(self.x, self.phi, 1.0, 0.0)

    def derivative_fn(self):
        return pchip_far_fields(self.x, self.dphi, 0.0, 0.0)


def _ghost_gradient(u: np.ndarray, h: float, u_left: float,
                    u_right: float) -> np.ndarray:
    """Centered differences with constant far-field ghost values."""
    padded = np.concatenate([[u_left], u, [u_right]])
    return (padded[2:] - padded[:-2]) / (2.0 * h)


def _stationary_residual(kernel: Kernel, f_hom, x, u, c) -> np.ndarray:
    field = FieldState(t=0.0, x=x, u=u, u_left=1.0, u_right=0.0)
    conv = convolve(kernel, field)
    du = _ghost_gradient(u, float(x[1] - x[0]), 1.0, 0.0)
    return conv - u + c * du + f_hom.eval(0.0, np.clip(u, -1.0, 3.0))


def _fractional_recenter(x, u, pos):
    """Shift the profile so the crossing sits at 0 (monotone interpolation)."""
    return pchip_far_fields(x, u, u[0], u[-1])(x + pos)


def solve_traveling_wave(kernel: Kernel, f_hom, grid: Grid,
                         tol: float = 1e-8, dt: float | None = None,
                         t_settle: float = 60.0, t_cap: float = 1200.0,
                         settle_tol: float = 1e-5,
                         newton_cap: int = 40) -> TravelingWave:
    """Evolve-and-align followed by Newton polish on the co-moving system."""
    if not (1e-10 <= tol <= 1e-4):
        raise WaveError("tol must lie in [1e-10, 1e-4]")
    if grid.x_max - grid.x_min < 80.0 - 1e-9:
        raise WaveError("wave window must span at least 80 length units")
    theta = f_hom.theta
    stepper = Stepper(kernel, f_hom)
    if dt is None:
        dt = 0.8 * stepper.dt_max

    state = smoothed_step(grid, center=0.0, width=2.0)
    h = grid.h
    block = 2.0
    n_block = max(1, int(round(block / dt)))
    dt_eff = block / n_block

    prev_aligned = None
    t = 0.0
    while t < t_cap:
        for _ in range(n_block):
            state = stepper.step(state, dt_eff)
        t = state.t
        if float(np.max(state.u)) < theta:
            raise WaveError("quenching detected: profile collapsed below "
                            "the ignition threshold")
        pos = locate_level(state, theta)
        # integer re-centering keeps the crossing near 0 without
        # interpolation: shift the profile by whole nodes, keep the grid
        state = _shift_window(state, int(round(pos / h))).with_(x=state.x)
        aligned = _fractional_recenter(state.x, state.u,
                                       locate_level(state, theta))
        if prev_aligned is not None and t >= t_settle:
            drift = float(np.max(np.abs(aligned - prev_aligned))) / block
            if drift < settle_tol:
                break
        prev_aligned = aligned
    else:
        raise WaveError("evolve-and-align did not settle within the time cap")

    # speed from the crossing drift over further blocks of the settled run
    c0 = _speed_from_blocks(stepper, state, dt_eff, block, theta)
    phi = _fractional_recenter(state.x, state.u,
                               locate_level(state, theta))
    phi, c = _newton_polish(kernel, f_hom, grid, phi, c0, theta, tol,
                            newton_cap)

    res = _stationary_residual(kernel, f_hom, grid.x, phi, c)
    residual_norm = float(np.max(np.abs(res)))
    if residual_norm > tol:
        raise WaveError(f"polish failed: residual {residual_norm} > {tol}")
    if c <= 0:
        raise WaveError("nonpositive wave speed")
    dphi = -(convolve(kernel, FieldState(0.0, grid.x, phi, 1.0, 0.0))
             - phi + f_hom.eval(0.0, phi)) / c
    return TravelingWave(speed=float(c), x=grid.x.copy(), phi=phi,
                         dphi=dphi, residual_norm=residual_norm, theta=theta)


def _speed_from_blocks(stepper, state, dt, horizon_block, theta,
                       n_blocks: int = 25) -> float:
    """Least-squares slope of the theta-crossing over a settled stretch."""
    n_in_block = max(1, int(round(horizon_block / dt)))
    ts, xs = [], []
    s = state
    for b in range(n_blocks):
        for _ in range(n_in_block):
            s = stepper.step(s, dt)
        ts.append(s.t)
        xs.append(locate_level(s, theta))
    half = len(ts) // 2
    slope, _, _ = fit_line(ts[half:], xs[half:])
    return float(slope)


def _newton_polish(kernel: Kernel, f_hom, grid: Grid, phi, c0, theta, tol,
                   newton_cap):
    """Newton on the stationary system with the phase row phi(0) = theta."""
    n = grid.n
    h = grid.h
    i0 = int(np.argmin(np.abs(grid.x)))
    k = kernel.half_points
    wj = kernel.weights * kernel.samples

    offsets = list(range(-k, k + 1))
    conv_diags = [np.full(n - abs(m), wj[k + m]) for m in offsets]
    conv_mat = sparse.diags(conv_diags, [-m for m in offsets], format="csr")
    d0 = sparse.diags([np.full(n - 1, 1.0 / (2 * h)),
                       np.full(n - 1, -1.0 / (2 * h))], [1, -1], format="csr")

    phi = phi.copy()
    c = float(c0)
    for _ in range(newton_cap):
        res = _stationary_residual(kernel, f_hom, grid.x, phi, c)
        phase = phi[i0] - theta
        norm = max(float(np.max(np.abs(res))), abs(phase))
        if norm <= 0.05 * tol:
            break
        fp = f_hom.eval_du(0.0, np.clip(phi, -1.0, 3.0))
        a_mat = (conv_mat - sparse.identity(n, format="csr")
                 + c * d0 + sparse.diags(fp, 0, format="csr"))
        dcol = _ghost_gradient(phi, h, 1.0, 0.0)
        top = sparse.hstack([a_mat, sparse.csr_matrix(dcol[:, None])])
        phase_row = np.zeros(n + 1)
        phase_row[i0] = 1.0
        full = sparse.vstack([top, sparse.csr_matrix(phase_row)]).tocsc()
        rhs = -np.concatenate([res, [phase]])
        delta = spsolve(full, rhs)
        step_size = 1.0
        if np.max(np.abs(delta[:n])) > 0.2:
            step_size = 0.2 / float(np.max(np.abs(delta[:n])))
        phi = phi + step_size * delta[:n]
        c = c + step_size * float(delta[n])
    else:
        raise WaveError("Newton polish did not converge within the cap")
    return phi, c

