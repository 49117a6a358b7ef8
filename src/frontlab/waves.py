"""Traveling-wave solver for the homogeneous problem.

Finds (c*, phi) with J*phi - phi + c* phi' + f(phi) = 0, phi(0) = theta,
phi decreasing from 1 to 0.  One damped Newton iteration on the stationary
co-moving system, bordered by the speed column and the phase row
phi(0) = theta (Beyn, IMA J. Numer. Anal. 10, 1990), started from the
smoothed step of width 2 and the speed START_SPEED.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .fields import FieldState, Grid, pchip_far_fields, smoothed_step
from .kernels import Kernel, convolve


class WaveError(RuntimeError):
    pass


class WaveInputError(WaveError, ValueError):
    """An argument outside the wave solver's domain."""


#: Newton start speed, iteration cap and residual tolerance
START_SPEED = 0.1
NEWTON_CAP = 40
TOL = 1e-8


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


def _ghost_gradient(u: np.ndarray, h: float) -> np.ndarray:
    """Centered differences with the far-field ghost values 1 and 0."""
    padded = np.concatenate([[1.0], u, [0.0]])
    return (padded[2:] - padded[:-2]) / (2.0 * h)


def _stationary_residual(kernel: Kernel, f_hom, x, u, c) -> np.ndarray:
    field = FieldState(t=0.0, x=x, u=u, u_left=1.0, u_right=0.0)
    conv = convolve(kernel, field)
    du = _ghost_gradient(u, float(x[1] - x[0]))
    return conv - u + c * du + f_hom.eval(0.0, u)


def solve_traveling_wave(kernel: Kernel, f_hom, grid: Grid) -> TravelingWave:
    """Newton on the co-moving system from the smoothed step."""
    if grid.x_max - grid.x_min < 80.0 - 1e-9:
        raise WaveInputError("wave window must span at least 80 length units")
    step = smoothed_step(grid, center=0.0, width=2.0)
    phi, c, residual_norm = _newton_polish(kernel, f_hom, grid, step.u)
    if c <= 0:
        raise WaveError("nonpositive wave speed")
    dphi = -(convolve(kernel, FieldState(0.0, grid.x, phi, 1.0, 0.0))
             - phi + f_hom.eval(0.0, phi)) / c
    return TravelingWave(speed=float(c), x=grid.x.copy(), phi=phi,
                         dphi=dphi, residual_norm=residual_norm,
                         theta=f_hom.theta)


def _newton_polish(kernel: Kernel, f_hom, grid: Grid, phi):
    """Damped Newton from (phi, START_SPEED) on the stationary system with
    the phase row phi(0) = theta; a step moves phi by at most 0.2
    anywhere.  Returns (phi, c, max|residual|) once both residuals are
    below 0.05 TOL."""
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
    c = START_SPEED
    for _ in range(NEWTON_CAP):
        res = _stationary_residual(kernel, f_hom, grid.x, phi, c)
        phase = phi[i0] - f_hom.theta
        res_norm = float(np.max(np.abs(res)))
        if max(res_norm, abs(phase)) <= 0.05 * TOL:
            return phi, c, res_norm
        fp = f_hom.eval_du(0.0, phi)
        a_mat = (conv_mat - sparse.identity(n, format="csr")
                 + c * d0 + sparse.diags(fp, 0, format="csr"))
        dcol = _ghost_gradient(phi, h)
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
    raise WaveError("Newton polish did not converge within the cap")

