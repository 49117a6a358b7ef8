"""Traveling-wave solver for the homogeneous problem.

Finds (c*, phi) with J*phi - phi + c* phi' + f(phi) = 0, phi(0) = theta,
phi decreasing from 1 to 0, by damped Newton.  The co-moving Jacobian in phi
is banded (half-bandwidth kernel.half_points); Keller's bordering (Keller
1977) adds the speed column and the phase row phi(0) = theta (Beyn, IMA J.
Numer. Anal. 10, 1990), so each step solves one band for two right-hand
sides: LAPACK dgbtrf and dgbtrs in its column-major band storage (LAPACK
Users' Guide, 3rd ed., 1999, sec. 5.3.3), loaded without scipy's packages.
Nested iteration (Brandt 1977) runs on every other node of the grid, and
coarser while the subsampled stencil keeps MIN_COARSE_HALF_POINTS: damped
steps on the coarsest from the smoothed step of width 2s at speed
START_SPEED s (s the stencil's rms width), then at least two steps on each
finer level from the interpolated wave.  After a full step that cut the
residual 10x comes a chord step on the same factors (Kelley 2003).  The grid
itself factors no band of J's width: from the interpolated 2h wave it runs
two-grid cycles (Brandt 1977), each a bordered chord step on J truncated to
+-SMOOTH_HALF diagonals and a bordered coarse correction on the 2h level's
last factors."""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .fields import (FieldState, Grid, SolverError, pchip_far_fields,
                     smoothed_step)
from .kernels import Kernel, convolve, subsample_kernel


#: Newton start speed per unit of the stencil's rms width, iteration cap
#: and residual tolerance
START_SPEED = 0.1
NEWTON_CAP = 40
TOL = 1e-8
#: half points a subsampled stencil keeps on a level below the top two
MIN_COARSE_HALF_POINTS = 12
#: the grid's smoother keeps J's diagonals out to SMOOTH_HALF; the two-grid
#: cycles stop below CYCLE_TOL, and fail once the residual grows DIVERGED-fold
SMOOTH_HALF = 4
CYCLE_TOL = 0.005 * TOL
DIVERGED = 1e3


@dataclass(frozen=True)
class TravelingWave:
    speed: float
    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    residual_norm: float
    theta: float
    iterations: int          # two-grid cycles on the grid itself
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
    """Nested Newton from the coarsest level up to 2h, then two-grid cycles
    on the grid itself."""
    if grid.x_max - grid.x_min < 80.0 - 1e-9:
        raise ValueError("wave window must span at least 80 length units")
    # the stencil's rms width; a one-node stencil has none, so its spacing
    s = float(np.sqrt(np.sum(kernel.weights * kernel.samples
                             * kernel.offsets ** 2))) or kernel.spacing
    grid_2h, x = _half_grid(grid), grid.x
    phi, c, coarse_iterations, factors = _nested(
        subsample_kernel(kernel), f_hom, grid_2h, s)
    phi, c, residual_norm, iterations = _two_grid(
        kernel, f_hom, grid, grid_2h, np.interp(x, grid_2h.x, phi), c,
        factors)
    if c <= 0:
        raise SolverError("nonpositive wave speed")
    dphi = -(convolve(kernel, FieldState(0.0, x, phi, 1.0, 0.0))
             - phi + f_hom.eval(0.0, phi)) / c
    return TravelingWave(speed=float(c), x=x, phi=phi,
                         dphi=dphi, residual_norm=residual_norm,
                         theta=f_hom.theta, iterations=iterations,
                         coarse_iterations=coarse_iterations)


def _half_grid(grid: Grid) -> Grid:
    """Every other node, one node short of x_max when n is even."""
    m = (grid.n - 1) // 2
    return Grid(grid.x_min, grid.x_min + 2.0 * grid.h * m, m + 1)


def _nested(kernel: Kernel, f_hom, grid: Grid, s: float):
    """(phi, c, steps on this level and every coarser one, the last band
    factors here); coarser levels follow while a subsampled stencil keeps
    MIN_COARSE_HALF_POINTS."""
    kern_2h = subsample_kernel(kernel)
    if kern_2h.half_points < MIN_COARSE_HALF_POINTS:
        start = smoothed_step(grid, center=0.0, width=2.0 * s).u
        phi, c, _, steps, factors = _newton_polish(
            kernel, f_hom, grid, start, START_SPEED * s)
        return phi, c, steps, factors
    grid_2h = _half_grid(grid)
    phi, c, below, _ = _nested(kern_2h, f_hom, grid_2h, s)
    phi, c, _, steps, factors = _newton_polish(
        kernel, f_hom, grid, np.interp(grid.x, grid_2h.x, phi), c,
        min_steps=2)
    return phi, c, steps + below, factors


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
    SolverError when the band is singular."""
    k = (ab.shape[0] - 1) // 3
    _, ipiv, info = _flapack().dgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        raise SolverError(f"banded LU failed (dgbtrf info {info})")
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


def _fill(ab: np.ndarray, kernel: Kernel, f_hom, phi, c, h) -> None:
    """J at (phi, c) into the (3k+1)-row band ab, its offsets beyond k
    dropped: J's weights (symmetric, so diagonal d holds one weight in every
    column), -1 + f_u(phi) on the main diagonal, c phi' centered beside it."""
    k, r = (ab.shape[0] - 1) // 3, kernel.half_points
    q = min(k, r)
    weights = np.zeros((3 * k + 1, 1))
    weights[2 * k - q:2 * k + q + 1, 0] = (kernel.weights
                                           * kernel.samples)[r - q:r + q + 1]
    ab[:] = weights
    ab[2 * k] += f_hom.eval_du(0.0, phi) - 1.0
    ab[2 * k - 1] += c / (2 * h)
    ab[2 * k + 1] -= c / (2 * h)


def _newton_polish(kernel: Kernel, f_hom, grid: Grid, phi, c,
                   min_steps: int = 0):
    """Damped Newton from (phi, c): a step solves J y = -res, J z = phi' (on
    J's last factors after a full step that cut the residual 10x), borders
    dc = (y(0) + phase) / z(0), delta = y - dc z, and moves phi by at most
    0.2 anywhere.  Returns (phi, c, max|residual|, steps, (ab, piv)), the
    band factors of the last J, once both residuals are below 0.05 TOL after
    at least min_steps steps."""
    x, h, k = grid.x, grid.h, max(kernel.half_points, 1)  # c phi' at +-1
    i0 = int(np.argmin(np.abs(x)))
    ab, piv = _band(3 * k + 1, grid.n), np.empty(grid.n, np.int32)
    phi, factor, last_norm = phi.copy(), True, np.inf
    for steps in range(NEWTON_CAP):
        res = _stationary_residual(kernel, f_hom, x, phi, c)
        phase = phi[i0] - f_hom.theta
        res_norm = float(np.max(np.abs(res)))
        if steps >= min_steps and max(res_norm, abs(phase)) <= 0.05 * TOL:
            return phi, c, res_norm, steps, (ab, piv)
        rhs = np.stack([-res, _ghost_gradient(phi, h)], 1)
        if factor or res_norm > 0.1 * last_norm:
            _fill(ab, kernel, f_hom, phi, c, h)
            y, z = spsolve(ab, rhs, piv).T
        else:  # a chord step on the last factors
            y, z = _backsolve(ab, piv, rhs).T
        dc = float((y[i0] + phase) / z[i0])
        delta = y - dc * z
        step_size = 0.2 / max(0.2, float(np.max(np.abs(delta))))
        phi, c = phi + step_size * delta, c + step_size * dc
        factor, last_norm = step_size < 1.0, res_norm
    raise SolverError("Newton polish did not converge within the cap")


def _two_grid(kernel: Kernel, f_hom, grid: Grid, grid_2h: Grid, phi, c,
              factors):
    """Two-grid cycles from (phi, c) on the 2h level's band factors, with no
    band of J's width factored here.  A cycle takes one bordered chord step
    on J truncated to +-SMOOTH_HALF diagonals (factored at the start), then
    a coarse correction.  Returns (phi, c, max|residual|, cycles) once both
    residuals are below CYCLE_TOL after at least two cycles."""
    x, x_2h, h = grid.x, grid_2h.x, grid.h
    i0 = int(np.argmin(np.abs(x)))
    band, piv = _band(3 * SMOOTH_HALF + 1, grid.n), np.empty(grid.n, np.int32)
    _fill(band, kernel, f_hom, phi, c, h)
    phi, limit = phi.copy(), None
    for cycles in range(NEWTON_CAP):
        res = _stationary_residual(kernel, f_hom, x, phi, c)
        phase = phi[i0] - f_hom.theta
        res_norm = float(np.max(np.abs(res)))
        if cycles >= 2 and max(res_norm, abs(phase)) <= CYCLE_TOL:
            return phi, c, res_norm, cycles
        limit = limit or DIVERGED * max(res_norm, TOL)
        if not res_norm <= limit:  # before f overflows on a runaway phi
            raise SolverError("two-grid cycles diverged")
        rhs = np.stack([-res, _ghost_gradient(phi, h)], 1)
        y, z = (spsolve(band, rhs, piv) if cycles == 0
                else _backsolve(band, piv, rhs)).T
        dc = float((y[i0] + phase) / z[i0])
        phi, c = phi + (y - dc * z), c + dc
        delta, dc = _coarse_correction(kernel, f_hom, x, x_2h, factors,
                                       phi, c)
        phi, c = phi + delta, c + dc
    raise SolverError("two-grid cycles did not converge within the cap")


def _coarse_correction(kernel: Kernel, f_hom, x, x_2h, factors, phi, c):
    """(delta, dc) from the 2h level on the nodes x_2h: the residual and
    phi' restricted by full weighting, solved on its band factors
    (ab, piv), bordered by the phase row there, and delta interpolated
    back to the nodes x."""
    rows = np.zeros((x.size + 2, 2))  # a zero row beyond either end
    rows[1:-1, 0] = -_stationary_residual(kernel, f_hom, x, phi, c)
    rows[1:-1, 1] = _ghost_gradient(phi, x[1] - x[0])
    m = x_2h.size
    y, z = _backsolve(*factors, (rows[0:2 * m:2] + 2.0 * rows[1:2 * m + 1:2]
                                 + rows[2:2 * m + 2:2]) / 4.0).T
    i0, i0_2h = int(np.argmin(np.abs(x))), int(np.argmin(np.abs(x_2h)))
    dc = float((y[i0_2h] + (phi[i0] - f_hom.theta)) / z[i0_2h])
    return np.interp(x, x_2h, y - dc * z), dc
