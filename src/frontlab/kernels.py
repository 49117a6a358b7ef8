"""Symmetric dispersal kernels, discrete convolution, and exponential moments.

A kernel is stored as samples J(kh) on a symmetric stencil |kh| <= R with
trapezoid quadrature weights.  After truncation the samples are renormalized
to unit quadrature mass, so convolution with a constant reproduces the
constant exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, SolverError

#: hard cap on the stencil radius search (length units)
RADIUS_CAP = 200.0


def _trapezoid_weights(size: int, spacing: float) -> np.ndarray:
    w = np.full(size, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class Kernel:
    """Sampled symmetric dispersal density with derivative samples."""

    family: str
    params: dict
    spacing: float
    stencil_radius: float
    samples: np.ndarray
    derivative_samples: np.ndarray
    r_max: float

    @property
    def half_points(self) -> int:
        return (self.samples.size - 1) // 2

    @property
    def offsets(self) -> np.ndarray:
        k = self.half_points
        return np.arange(-k, k + 1) * self.spacing

    @property
    def weights(self) -> np.ndarray:
        return _trapezoid_weights(self.samples.size, self.spacing)

    def quadrature_mass(self) -> float:
        return float(np.sum(self.weights * self.samples))

    def derivative_abs_integral(self) -> float:
        """Quadrature of |J'|; (H1) diagnostic only, no threshold asserted."""
        return float(np.sum(self.weights * np.abs(self.derivative_samples)))


# ---------------------------------------------------------------------------
# analytic families

def _gaussian_density(sigma):
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def density(x):
        return c * np.exp(-0.5 * (x / sigma) ** 2)

    def derivative(x):
        return -x / sigma**2 * density(x)

    def tail_mass(r):
        return math.erfc(r / sigma / math.sqrt(2.0))

    return density, derivative, tail_mass


def _bump_density(a):
    # C * exp(-1/(1-(x/a)^2)) on |x| < a; C fixed by fine quadrature.
    def raw(x):
        s = np.asarray(x, dtype=float) / a
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    xs = np.linspace(-a, a, 20001)
    c = 1.0 / np.trapezoid(raw(xs), xs)

    def density(x):
        return c * raw(x)

    def derivative(x):
        s = np.asarray(x, dtype=float) / a
        out = density(x)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] *= -2.0 * si / (a * (1.0 - si**2) ** 2)
        return out

    def tail_mass(r):
        return 0.0 if r >= a else 1.0

    return density, derivative, tail_mass


def _family_closures(family: str, params: dict):
    own = {"gaussian": "sigma", "bump": "a"}.get(family)
    if own is None:
        raise ValueError(f"unsupported kernel family: {family!r}")
    unknown = sorted(set(params) - {own})
    if unknown:
        raise ValueError(f"the {family} kernel takes {own!r} alone, not "
                         f"kernel.{unknown[0]}")
    width = float(params.get(own, 1.0))  # sigma, or the bump's half-width
    if width <= 0:
        raise ValueError(f"{family} kernel {own} must be positive")
    if family == "gaussian":
        return _gaussian_density(width) + (4.0 / width,)
    return _bump_density(width) + (20.0,)


def build_kernel(family: str, spacing: float, tail_tolerance: float,
                 **params) -> Kernel:
    """Sample a named kernel family on the smallest adequate stencil."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if not (0.0 < tail_tolerance <= 1e-6):
        raise ValueError("tail tolerance must lie in (0, 1e-6]")
    density, derivative, tail_mass, r_max = _family_closures(family, params)

    k = 1
    while tail_mass(k * spacing) > tail_tolerance:
        k += 1
        if k * spacing > RADIUS_CAP:
            raise ValueError(
                "tail mass not attainable within the radius cap; "
                "kernel tail is too heavy")
    radius = k * spacing
    offsets = np.arange(-k, k + 1) * spacing
    samples = density(offsets)
    deriv = derivative(offsets)
    # symmetry bit-exactly, regardless of the family's rounding
    samples = 0.5 * (samples + samples[::-1])
    deriv = 0.5 * (deriv - deriv[::-1])

    # the density's mass on [-radius, radius], by a fine trapezoid rule: at
    # the stencil spacing, |mass_h - mass_2h| can understate the error
    xs = np.linspace(-radius, radius, 20001)
    total = float(np.trapezoid(density(xs), xs))
    if not 1.0 - tail_tolerance - 1e-8 <= total <= 1.0 + 1e-8:
        raise ValueError(f"quadrature mass {total} inconsistent with "
                         "tail bound")
    mass = float(np.sum(_trapezoid_weights(samples.size, spacing) * samples))
    samples = samples / mass
    deriv = deriv / mass

    return Kernel(family=family, params=dict(params), spacing=spacing,
                  stencil_radius=radius, samples=samples,
                  derivative_samples=deriv, r_max=r_max)


def subsample_kernel(kernel: Kernel) -> Kernel:
    """The kernel at every other offset (spacing 2h, offset 0 kept),
    renormalized to unit trapezoid mass at that spacing."""
    k = kernel.half_points
    keep = slice(k % 2, None, 2)
    samples = kernel.samples[keep]
    spacing = 2.0 * kernel.spacing
    mass = float(np.sum(_trapezoid_weights(samples.size, spacing) * samples))
    return Kernel(family=kernel.family, params=dict(kernel.params),
                  spacing=spacing, stencil_radius=(k // 2) * spacing,
                  samples=samples / mass,
                  derivative_samples=kernel.derivative_samples[keep] / mass,
                  r_max=kernel.r_max)


# ---------------------------------------------------------------------------
# convolution

@functools.lru_cache(maxsize=64)
def _next_fast_len(target: int) -> int:
    """The least 5-smooth number >= target, the FFT length that
    scipy.fft.next_fast_len(target, real=True) picks."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=16)
def _spectrum(weighted: bytes, length: int) -> np.ndarray:
    spectrum = np.fft.rfft(np.frombuffer(weighted), length)
    spectrum.flags.writeable = False  # shared by every caller of the cache
    return spectrum


def _fft_work(weighted: np.ndarray, shape: tuple) -> tuple:
    """(padded, its transform, product, output) of _convolve_samples on u
    of this shape."""
    length = _next_fast_len(shape[-1] + 2 * (weighted.size - 1))
    half = shape[:-1] + (length // 2 + 1,)
    return (np.zeros(shape[:-1] + (length,)), np.empty(half, dtype=complex),
            np.empty(half, dtype=complex), np.empty(shape[:-1] + (length,)))


def _convolve_samples(weighted: np.ndarray, u: np.ndarray,
                      u_left, u_right, work=None,
                      transformed: bool = False) -> np.ndarray:
    # u has shape (..., n), the far fields are scalars or of shape (...);
    # work, from _fft_work, is reused (padded stays zero past the far
    # fields), and the result is a view into it.  transformed=True reuses
    # the transform of u that the previous call on this work left there
    k, n = (weighted.size - 1) // 2, u.shape[-1]
    padded, forward, spec, full = work or _fft_work(weighted, u.shape)
    if not transformed:
        padded[..., :k] = np.asarray(u_left)[..., None]
        padded[..., k:k + n] = u
        padded[..., k + n:n + 2 * k] = np.asarray(u_right)[..., None]
        np.fft.rfft(padded, out=forward)
    np.multiply(forward, _spectrum(weighted.tobytes(), full.shape[-1]),
                out=spec)
    np.fft.irfft(spec, full.shape[-1], out=full)
    return full[..., 2 * k:2 * k + n]


def _check_compatible(kernel: Kernel, field: FieldState) -> None:
    if not math.isclose(kernel.spacing, field.h, rel_tol=1e-10):
        raise ValueError("field grid spacing does not match kernel spacing")
    if (field.x[-1] - field.x[0]) < 2.0 * kernel.stencil_radius:
        raise ValueError("field window narrower than twice the stencil radius")


def convolve(kernel: Kernel, field: FieldState) -> np.ndarray:
    """(J*u)(x) at every grid node, with far-field extension."""
    _check_compatible(kernel, field)
    # symmetric kernel: no flip needed
    return _convolve_samples(kernel.weights * kernel.samples, field.u,
                             field.u_left, field.u_right)


# ---------------------------------------------------------------------------
# moments and decay rates

def exponential_moment(kernel: Kernel, r: float) -> float:
    """I(r) = integral of J(x) e^{-rx}: stencil quadrature plus tail."""
    if abs(r) > kernel.r_max:
        raise ValueError(f"|r|={abs(r)} beyond the family moment range "
                          f"{kernel.r_max}")
    quad = float(np.sum(kernel.weights * kernel.samples
                        * np.exp(-r * kernel.offsets)))
    return quad + _moment_tail(kernel, r)


def _moment_tail(kernel: Kernel, r: float) -> float:
    if kernel.family == "gaussian":
        sigma = float(kernel.params.get("sigma", 1.0))
        R = kernel.stencil_radius
        bulk = math.exp(0.5 * (sigma * r) ** 2)
        right = 0.5 * math.erfc((R + sigma**2 * r) / sigma / math.sqrt(2.0))
        left = 0.5 * math.erfc((R - sigma**2 * r) / sigma / math.sqrt(2.0))
        return bulk * (right + left)
    return 0.0  # compact support: no mass beyond the stencil


def positive_decay_rate(kernel: Kernel, c_min: float) -> float:
    """Half of the nonzero root of g(c) = c*c_min - I(c) + 1.

    g(0) = 0 and g is positive on a right neighborhood of 0; the returned
    rate c~ = 0.5*c_bar satisfies g(c~) > 0 with margin.
    """
    if c_min <= 0:
        raise ValueError("c_min must be positive")

    def g(c):
        return c * c_min - exponential_moment(kernel, c) + 1.0

    lo = min(0.25 * c_min, 0.5 * kernel.r_max)
    while g(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-12:
            raise SolverError("no positive decay rate: g <= 0 near 0")
    hi = lo
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > kernel.r_max:
            raise SolverError(
                "no positive root below r_max; c_min too small for the "
                "kernel spread")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    root = 0.5 * (lo + hi)
    return 0.5 * root

