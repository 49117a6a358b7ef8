"""Traveling-wave solver for the homogeneous problem.

Finds (c*, phi) with J*phi - phi + c* phi' + f(phi) = 0, phi(0) = theta,
phi decreasing from 1 to 0, by damped Newton.  The co-moving Jacobian in phi
is banded (half-bandwidth kernel.half_points); Keller's bordering (Keller
1977) adds the speed column and the phase row phi(0) = theta (Beyn, IMA J.
Numer. Anal. 10, 1990), so each step solves one band for two right-hand
sides: LAPACK dgbtrf and dgbtrs in its column-major band storage (LAPACK
Users' Guide, 3rd ed., 1999, sec. 5.3.3), loaded without scipy's packages.
Nested iteration (Brandt 1977) runs on the grid, on every other node, and
coarser while the subsampled stencil keeps MIN_COARSE_HALF_POINTS: damped
steps on the coarsest from the smoothed step of width 2s at speed
START_SPEED s (s the stencil's rms width), then at least two steps on each
finer level from the interpolated wave.  After a full step that cut the
residual 10x comes a chord step on the same factors (Kelley 2003).
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


#: Newton start speed per unit of the stencil's rms width, iteration cap
#: and residual tolerance
START_SPEED = 0.1
NEWTON_CAP = 40
TOL = 1e-8
#: half points a subsampled stencil keeps on a level below the top two
MIN_COARSE_HALF_POINTS = 12


@dataclass(frozen=True)
class TravelingWave:
    speed: float
    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    residual_norm: float
    theta: float
    iterations: int          # fine-grid Newton steps
    coarse_iterations: int   # Newton steps on every coarser level

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
    """Nested Newton from the coarsest level up to the grid itself."""
    if grid.x_max - grid.x_min < 80.0 - 1e-9:
        raise WaveInputError("wave window must span at least 80 length units")
    # the stencil's rms width; a one-node stencil has none, so its spacing
    s = float(np.sqrt(np.sum(kernel.weights * kernel.samples
                             * kernel.offsets ** 2))) or kernel.spacing
    phi, c, residual_norm, iterations, coarse_iterations = _nested(
        kernel, f_hom, grid, s, depth=0)
    if c <= 0:
        raise WaveError("nonpositive wave speed")
    dphi = -(convolve(kernel, FieldState(0.0, grid.x, phi, 1.0, 0.0))
             - phi + f_hom.eval(0.0, phi)) / c
    return TravelingWave(speed=float(c), x=grid.x.copy(), phi=phi,
                         dphi=dphi, residual_norm=residual_norm,
                         theta=f_hom.theta, iterations=iterations,
                         coarse_iterations=coarse_iterations)


def _nested(kernel: Kernel, f_hom, grid: Grid, s: float, depth: int):
    """(phi, c, max|residual|, steps here, steps on all coarser levels);
    below 2h, levels follow while a stencil keeps MIN_COARSE_HALF_POINTS."""
    kern_2h = subsample_kernel(kernel)
    if depth and kern_2h.half_points < MIN_COARSE_HALF_POINTS:
        start = smoothed_step(grid, center=0.0, width=2.0 * s).u
        return *_newton_polish(kernel, f_hom, grid, start, START_SPEED * s), 0
    m = (grid.n - 1) // 2  # one node short of x_max when n is even
    grid_2h = Grid(grid.x_min, grid.x_min + 2.0 * grid.h * m, m + 1)
    phi, c, _, steps, below = _nested(kern_2h, f_hom, grid_2h, s, depth + 1)
    return *_newton_polish(kernel, f_hom, grid,
                           np.interp(grid.x, grid_2h.x, phi), c,
                           min_steps=2), steps + below


@functools.cache
def _flapack():
    """scipy.linalg._flapack from its own file, so that no scipy package
    __init__ runs; one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set."""
    from importlib import machinery, util
    name = "scipy.linalg._flapack"
    if name not in sys.modules:  # else scipy.linalg has loaded it
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        folder = util.find_spec("scipy").submodule_search_locations[0]
        spec = machinery.FileFinder(os.path.join(folder, "linalg"), (
            machinery.ExtensionFileLoader,
            machinery.EXTENSION_SUFFIXES)).find_spec(name)
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def spsolve(ab: np.ndarray, rhs: np.ndarray, piv=None) -> np.ndarray:
    """Banded LU (dgbtrf) of ab, a Fortran-ordered (3k+1, n) band in LAPACK's
    storage (row 2k - d holds diagonal d; rows 0..k-1 are room for fill-in),
    overwritten by the factors, and their row interchanges into piv if
    given; then rhs solved on them.  Every factorization of the wave solve
    goes through here, under the name the benchmark times.  Raises
    WaveError when the band is singular."""
    k = (ab.shape[0] - 1) // 3
    _, ipiv, info = _flapack().dgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        raise WaveError(f"banded LU failed (dgbtrf info {info})")
    if piv is not None:
        piv[:] = ipiv
    return _backsolve(ab, ipiv, rhs)


def _backsolve(ab: np.ndarray, piv: np.ndarray, rhs: np.ndarray):
    """rhs solved with the factors that spsolve left in ab (dgbtrs)."""
    k = (ab.shape[0] - 1) // 3
    return _flapack().dgbtrs(ab, k, k, rhs, piv)[0]


def _band(rows: int, n: int) -> np.ndarray:
    """An uninitialised Fortran-ordered (rows, n) band in a private anonymous
    mapping, populated at once and unmapped when freed: bands from malloc
    raised glibc's mmap threshold, so peak memory depended on solve order."""
    import mmap  # off the CLI's launch, like the LAPACK module
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.ndarray((rows, n), order="F",
                      buffer=mmap.mmap(-1, rows * n * 8, flags=flags))


def _newton_polish(kernel: Kernel, f_hom, grid: Grid, phi, c,
                   min_steps: int = 0):
    """Damped Newton from (phi, c): a step solves J y = -res, J z = phi' (on
    J's last factors after a full step that cut the residual 10x), borders
    dc = (y(0) + phase) / z(0), delta = y - dc z, and moves phi by at most
    0.2 anywhere.  Returns (phi, c, max|residual|, steps) once both
    residuals are below 0.05 TOL after at least min_steps steps."""
    h, k = grid.h, max(kernel.half_points, 1)  # room for c phi' at +-1
    i0 = int(np.argmin(np.abs(grid.x)))
    # J's weights are symmetric: diagonal d (row 2k - d) holds one weight
    # in every column, so one column of weights refills the whole band
    stencil = np.zeros((3 * k + 1, 1))
    r = kernel.half_points
    stencil[2 * k - r:2 * k + r + 1, 0] = kernel.weights * kernel.samples
    ab, piv = _band(3 * k + 1, grid.n), np.empty(grid.n, np.int32)
    phi, factor, last_norm = phi.copy(), True, np.inf
    for steps in range(NEWTON_CAP):
        res = _stationary_residual(kernel, f_hom, grid.x, phi, c)
        phase = phi[i0] - f_hom.theta
        res_norm = float(np.max(np.abs(res)))
        if steps >= min_steps and max(res_norm, abs(phase)) <= 0.05 * TOL:
            return phi, c, res_norm, steps
        rhs = np.stack([-res, _ghost_gradient(phi, h)], 1)
        if factor or res_norm > 0.1 * last_norm:
            ab[:] = stencil
            ab[2 * k] += f_hom.eval_du(0.0, phi) - 1.0
            ab[2 * k - 1] += c / (2 * h)
            ab[2 * k + 1] -= c / (2 * h)
            y, z = spsolve(ab, rhs, piv).T
        else:  # a chord step on the last factors
            y, z = _backsolve(ab, piv, rhs).T
        dc = float((y[i0] + phase) / z[i0])
        delta = y - dc * z
        step_size = 0.2 / max(0.2, float(np.max(np.abs(delta))))
        phi, c = phi + step_size * delta, c + step_size * dc
        factor, last_norm = step_size < 1.0, res_norm
    raise WaveError("Newton polish did not converge within the cap")
