"""Traveling-wave solver for the homogeneous problem.

Finds (c*, phi) with J*phi - phi + c* phi' + f(phi) = 0, phi(0) = theta,
phi decreasing from 1 to 0, by damped Newton.  The co-moving Jacobian in phi
is banded (half-bandwidth kernel.half_points); Keller's bordering (Keller
1977) adds the speed column and the phase row phi(0) = theta (Beyn, IMA J.
Numer. Anal. 10, 1990), so each step is one banded LU solve with two
right-hand sides: LAPACK dgbsv on the band in its column-major storage
(LAPACK Users' Guide, 3rd ed., 1999, sec. 5.3.3), from scipy's compiled
LAPACK module without the scipy.linalg package.  The solve has two levels
(nested iteration, Brandt 1977): the damped steps from the smoothed step of
width 2 and the speed START_SPEED run on every other node with the
subsampled kernel, where an LU costs about 1/8 as much; the fine grid then
starts from the interpolated coarse wave and polishes it in at least two
full steps.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, Grid, pchip_far_fields, smoothed_step
from .kernels import Kernel, convolve, subsample_kernel


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
    iterations: int          # fine-grid Newton steps
    coarse_iterations: int   # Newton steps on the half-resolution grid

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
    """Newton on the co-moving system: damped from the smoothed step on the
    grid of spacing 2h, then polished on the grid itself."""
    if grid.x_max - grid.x_min < 80.0 - 1e-9:
        raise WaveInputError("wave window must span at least 80 length units")
    m = (grid.n - 1) // 2  # one fine node short of x_max when n is even
    coarse = Grid(grid.x_min, grid.x_min + 2.0 * grid.h * m, m + 1)
    step = smoothed_step(coarse, center=0.0, width=2.0)
    phi, c, _, coarse_iterations = _newton_polish(
        subsample_kernel(kernel), f_hom, coarse, step.u, START_SPEED)
    phi, c, residual_norm, iterations = _newton_polish(
        kernel, f_hom, grid, np.interp(grid.x, coarse.x, phi), c,
        min_steps=2)
    if c <= 0:
        raise WaveError("nonpositive wave speed")
    dphi = -(convolve(kernel, FieldState(0.0, grid.x, phi, 1.0, 0.0))
             - phi + f_hom.eval(0.0, phi)) / c
    return TravelingWave(speed=float(c), x=grid.x.copy(), phi=phi,
                         dphi=dphi, residual_norm=residual_norm,
                         theta=f_hom.theta, iterations=iterations,
                         coarse_iterations=coarse_iterations)


@functools.cache
def _gbsv():
    """LAPACK dgbsv from scipy.linalg._flapack, loaded from its own file so
    that scipy.linalg's package __init__ (0.25 s of imports) never runs.
    Its OpenBLAS gets one thread unless the caller set OPENBLAS_NUM_THREADS."""
    from importlib import machinery, util
    name = "scipy.linalg._flapack"
    if name not in sys.modules:  # else scipy.linalg has loaded it
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        folder = util.find_spec("scipy.linalg").submodule_search_locations[0]
        spec = machinery.FileFinder(folder, (
            machinery.ExtensionFileLoader,
            machinery.EXTENSION_SUFFIXES)).find_spec(name)
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].dgbsv


def spsolve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Banded LU solve for each column of rhs: the one linear solve of a
    Newton step.  ab is a Fortran-ordered (3k+1, n) band in dgbsv's storage
    (row 2k - d holds diagonal d; rows 0..k-1 are room for the LU's fill-in)
    and is overwritten.  It keeps the name of the sparse solve it replaced,
    under which the benchmark times Newton steps.  Raises WaveError when the
    band is singular."""
    k = (ab.shape[0] - 1) // 3
    _, _, x, info = _gbsv()(k, k, ab, rhs, overwrite_ab=True)
    if info != 0:
        raise WaveError(f"banded LU failed (dgbsv info {info})")
    return x


def _band(rows: int, n: int) -> np.ndarray:
    """An uninitialised Fortran-ordered (rows, n) band in its own anonymous
    mapping, which goes back to the system as soon as the band is freed.
    Bands of several megabytes from malloc raise glibc's mmap threshold
    when freed, so later bands stay resident on the heap and a process's
    peak memory depended on the order of its wave solves."""
    import mmap  # off the CLI's launch, like the LAPACK module
    return np.ndarray((rows, n), order="F",
                      buffer=mmap.mmap(-1, rows * n * 8))


def _newton_polish(kernel: Kernel, f_hom, grid: Grid, phi, c,
                   min_steps: int = 0):
    """Damped Newton from (phi, c): a step solves J y = -res and J z = phi',
    borders dc = (y(0) + phase) / z(0), delta = y - dc z, and moves phi by
    at most 0.2 anywhere.  Returns (phi, c, max|residual|, steps) once both
    residuals are below 0.05 TOL after at least min_steps steps."""
    h, k = grid.h, max(kernel.half_points, 1)  # room for c phi' at +-1
    i0 = int(np.argmin(np.abs(grid.x)))
    # J's weights are symmetric: diagonal d (row 2k - d) holds one weight
    # in every column, so one column of weights refills the whole band
    stencil = np.zeros((3 * k + 1, 1))
    r = kernel.half_points
    stencil[2 * k - r:2 * k + r + 1, 0] = kernel.weights * kernel.samples
    ab = _band(3 * k + 1, grid.n)
    phi = phi.copy()
    for steps in range(NEWTON_CAP):
        res = _stationary_residual(kernel, f_hom, grid.x, phi, c)
        phase = phi[i0] - f_hom.theta
        res_norm = float(np.max(np.abs(res)))
        if steps >= min_steps and max(res_norm, abs(phase)) <= 0.05 * TOL:
            return phi, c, res_norm, steps
        ab[:] = stencil
        ab[2 * k] += f_hom.eval_du(0.0, phi) - 1.0
        ab[2 * k - 1] += c / (2 * h)
        ab[2 * k + 1] -= c / (2 * h)
        y, z = spsolve(ab, np.stack([-res, _ghost_gradient(phi, h)], 1)).T
        dc = float((y[i0] + phase) / z[i0])
        delta = y - dc * z
        step_size = 1.0
        if np.max(np.abs(delta)) > 0.2:
            step_size = 0.2 / float(np.max(np.abs(delta)))
        phi = phi + step_size * delta
        c = c + step_size * dc
    raise WaveError("Newton polish did not converge within the cap")
