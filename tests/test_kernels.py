import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft, special

from frontlab import kernels
from frontlab.fields import FieldState, Grid
from frontlab.kernels import (Kernel, _convolve_samples, build_kernel,
                              convolve, exponential_moment,
                              positive_decay_rate)
from kernel_helpers import direct_convolve, with_samples


def make_field(u, grid, left=1.0, right=0.0):
    return FieldState(t=0.0, x=grid.x, u=np.asarray(u, dtype=float),
                      u_left=left, u_right=right)


class TestBuildKernel:
    def test_gaussian_stencil_and_mass(self, kernel):
        # smallest grid-aligned radius with analytic tail mass <= 1e-6
        assert kernel.stencil_radius == pytest.approx(4.9)
        assert kernel.samples.size == 197
        # renormalized to exactly unit quadrature mass
        assert kernel.quadrature_mass() == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_is_bit_exact(self, kernel):
        assert np.array_equal(kernel.samples, kernel.samples[::-1])
        assert np.array_equal(kernel.derivative_samples,
                              -kernel.derivative_samples[::-1])

    def test_peak_value(self, kernel):
        mid = kernel.samples.size // 2
        assert kernel.samples[mid] == pytest.approx(1.0 / np.sqrt(2 * np.pi),
                                                    rel=1e-5)

    def test_bump_family_compact_support(self):
        k = build_kernel("bump", spacing=0.05, tail_tolerance=1e-6, a=2.0)
        assert k.stencil_radius == pytest.approx(2.0)
        assert k.samples[0] == 0.0 and k.samples[-1] == 0.0
        assert k.quadrature_mass() == pytest.approx(1.0, abs=1e-14)

    def test_derivative_abs_integral_diagnostic(self, kernel):
        # int |J'| = 2 J(0) for a unimodal even density
        assert kernel.derivative_abs_integral() == pytest.approx(
            2.0 / np.sqrt(2 * np.pi), rel=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_kernel("gaussian", spacing=-0.05, tail_tolerance=1e-6,
                         sigma=1.0)
        with pytest.raises(ValueError):
            build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-3,
                         sigma=1.0)
        with pytest.raises(ValueError):
            build_kernel("sombrero", spacing=0.05, tail_tolerance=1e-6)


class TestConvolve:
    def test_constant_is_fixed_point(self, kernel):
        grid = Grid(-20.0, 20.0, 801)
        fld = make_field(np.full(grid.x.size, 0.7), grid, left=0.7, right=0.7)
        out = convolve(kernel, fld)
        assert np.max(np.abs(out - 0.7)) < 1e-14

    def test_step_midpoint(self, kernel):
        grid = Grid(-20.0, 20.0, 801)
        u = np.where(grid.x < 0, 1.0, 0.0)
        u[grid.x == 0.0] = 0.5
        out = convolve(kernel, make_field(u, grid))
        i0 = int(np.argmin(np.abs(grid.x)))
        # symmetric kernel sees exactly half of the symmetrized step
        assert out[i0] == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_smoothing_oracle(self, kernel):
        # J * N(0, s^2) = N(0, 1 + s^2) for the Gaussian kernel
        grid = Grid(-20.0, 20.0, 801)
        s = 1.5
        u = np.exp(-grid.x**2 / (2 * s*s)) / (s * np.sqrt(2 * np.pi))
        out = convolve(kernel, make_field(u, grid, left=0.0, right=0.0))
        v = 1.0 + s*s
        expect = np.exp(-grid.x**2 / (2 * v)) / np.sqrt(2 * np.pi * v)
        assert np.max(np.abs(out - expect)) < 1e-6

    def test_derivative_convolution_of_step(self, kernel):
        # (J' * 1_{x<0})(0) = -J(0)
        grid = Grid(-20.0, 20.0, 801)
        u = np.where(grid.x < 0, 1.0, 0.0)
        u[grid.x == 0.0] = 0.5
        # J'*u as the stepper forms it for the co-state
        out = _convolve_samples(kernel.weights * kernel.derivative_samples,
                                u, 1.0, 0.0)
        i0 = int(np.argmin(np.abs(grid.x)))
        assert out[i0] == pytest.approx(-1.0 / np.sqrt(2 * np.pi), abs=1e-3)

    def test_far_field_padding(self, kernel):
        grid = Grid(-10.0, 10.0, 401)
        u = 0.5 * (1.0 - np.tanh(grid.x))
        out = convolve(kernel, make_field(u, grid))
        # near the edges the result approaches the far-field constants
        assert out[0] == pytest.approx(1.0, abs=1e-7)
        assert out[-1] == pytest.approx(0.0, abs=1e-7)

    def test_spacing_mismatch_rejected(self, kernel):
        grid = Grid(-10.0, 10.0, 101)   # h = 0.2 != kernel spacing
        with pytest.raises(ValueError):
            convolve(kernel, make_field(np.zeros(101), grid))


class TestExponentialMoment:
    def test_gaussian_closed_form(self, kernel):
        for r in (0.25, 0.5, 1.0):
            assert exponential_moment(kernel, r) == pytest.approx(
                np.exp(r * r / 2.0), abs=2e-6)

    def test_even_in_r(self, kernel):
        assert exponential_moment(kernel, 0.3) == pytest.approx(
            exponential_moment(kernel, -0.3), rel=1e-12)

    def test_small_r_quadratic(self, kernel):
        # I(r) - 1 ~ r^2 sigma^2/2
        # the truncated tail mass (~1e-6) dominates the error at tiny r
        val = (exponential_moment(kernel, 0.01) - 1.0) / 1e-4
        assert val == pytest.approx(0.5, abs=2e-2)


class TestPositiveDecayRate:
    def test_root_property(self, kernel):
        c = 0.1325
        rate = positive_decay_rate(kernel, c)
        root = 2.0 * rate   # returned rate is half the root of g
        g = c * root - exponential_moment(kernel, root) + 1.0
        assert abs(g) < 1e-10

    def test_frozen_value(self, kernel):
        assert positive_decay_rate(kernel, 0.1325) == pytest.approx(
            0.130261, abs=1e-4)

    def test_monotone_in_speed(self, kernel):
        assert (positive_decay_rate(kernel, 0.15)
                > positive_decay_rate(kernel, 0.10))

    def test_rejects_nonpositive_speed(self, kernel):
        with pytest.raises(ValueError):
            positive_decay_rate(kernel, 0.0)


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(min_value=0.3, max_value=2.0))
# the trapezoid endpoint error alone takes this mass below 1 - tolerance
@example(sigma=0.5928007937718327)
def test_any_sigma_builds_valid_kernel(sigma):
    k = build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                     sigma=sigma)
    assert np.all(k.samples >= 0)
    assert np.array_equal(k.samples, k.samples[::-1])
    assert k.quadrature_mass() == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.5, max_value=2.0))
# a coarse stencil: the trapezoid rule misses unit mass by 1.6e-5
@example(a=0.51)
# the stencil misses unit mass by 6.9e-6, |mass_h - mass_2h| reads 4.0e-6
@example(a=0.8611927446557992)
def test_any_bump_width_builds_valid_kernel(a):
    k = build_kernel("bump", spacing=0.05, tail_tolerance=1e-6, a=a)
    assert np.all(k.samples >= 0)
    assert k.samples[0] == 0.0 and k.samples[-1] == 0.0
    assert k.quadrature_mass() == pytest.approx(1.0, abs=1e-13)


def test_mass_check_rejects_a_scaled_density(monkeypatch):
    real = kernels._family_closures

    def doubled(family, params):
        density, derivative, tail_mass, r_max = real(family, params)
        return (lambda x: 2.0 * density(x), derivative, tail_mass, r_max)

    monkeypatch.setattr(kernels, "_family_closures", doubled)
    for family, params in (("gaussian", {"sigma": 1.0}), ("bump", {"a": 1.0})):
        with pytest.raises(ValueError, match="quadrature mass"):
            build_kernel(family, spacing=0.05, tail_tolerance=1e-6, **params)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_convolution_preserves_bounds_and_monotonicity(seed, kernel):
    rng = np.random.default_rng(seed)
    grid = Grid(-15.0, 15.0, 601)
    # random monotone decreasing profile in [0, 1]
    steps = rng.random(grid.x.size)
    u = 1.0 - np.cumsum(steps) / np.sum(steps)
    out = convolve(kernel, make_field(u, grid))
    assert np.all(out <= 1.0 + 1e-12) and np.all(out >= -1e-12)
    assert np.all(np.diff(out) <= 1e-12)


@settings(max_examples=30, deadline=None)
@given(params=st.one_of(
           st.floats(min_value=0.5, max_value=2.0).map(
               lambda sigma: {"family": "gaussian", "sigma": sigma}),
           st.floats(min_value=0.5, max_value=2.0).map(
               lambda a: {"family": "bump", "a": a})),
       n=st.integers(min_value=401, max_value=2401),
       seed=st.integers(min_value=0, max_value=10_000))
def test_fft_convolution_matches_direct_form(params, n, seed):
    k = build_kernel(spacing=0.05, tail_tolerance=1e-6, **params)
    rng = np.random.default_rng(seed)
    u = rng.random((2, n))
    left, right = rng.random(2), rng.random(2)
    for samples in (k.samples, k.derivative_samples):
        weighted = k.weights * samples
        lanes = _convolve_samples(weighted, u, left, right)
        for i in range(2):
            ref = direct_convolve(weighted, u[i], left[i], right[i])
            single = _convolve_samples(weighted, u[i], left[i], right[i])
            assert np.max(np.abs(single - ref)) <= 1e-13
            assert np.array_equal(lanes[i], single)


def test_with_samples_override(kernel):
    skew = kernel.samples.copy()
    skew[0] *= 3.0
    k2 = with_samples(kernel, skew)
    assert isinstance(k2, Kernel)
    assert not np.array_equal(k2.samples, k2.samples[::-1])


class TestScipyParity:
    """The numpy-only convolution and Gaussian tails reproduce the
    scipy.fft and scipy.special forms they replaced."""

    def test_next_fast_len(self):
        for target in range(1, 20001):
            assert kernels._next_fast_len(target) == fft.next_fast_len(
                target, real=True), target

    @pytest.mark.parametrize("lanes", [(), (2,)])
    def test_convolution_bit_for_bit(self, kernel, rng, lanes):
        weighted = kernel.weights * kernel.samples
        u = rng.random(lanes + (1201,))
        left, right = rng.random(lanes), rng.random(lanes)
        k, n = kernel.half_points, u.shape[-1]
        length = fft.next_fast_len(n + 4 * k, real=True)
        padded = np.zeros(lanes + (length,))
        padded[..., :k] = left[..., None]
        padded[..., k:k + n] = u
        padded[..., k + n:n + 2 * k] = right[..., None]
        ref = fft.irfft(fft.rfft(padded) * fft.rfft(weighted, length),
                        length)[..., 2 * k:2 * k + n]
        got = _convolve_samples(weighted, u, left, right)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("lanes", [(), (2,)])
    def test_reused_transform_bit_for_bit(self, kernel, rng, lanes):
        # J'*u from the transform of u that J*u left in the work arrays
        # equals J'*u convolved afresh
        wj = kernel.weights * kernel.samples
        wdj = kernel.weights * kernel.derivative_samples
        u = rng.random(lanes + (1201,))
        left, right = rng.random(lanes), rng.random(lanes)
        work = kernels._fft_work(wj, u.shape)
        _convolve_samples(wj, u, left, right, work=work)
        reused = _convolve_samples(wdj, u, left, right, work=work,
                                   transformed=True)
        assert np.array_equal(reused, _convolve_samples(wdj, u, left, right))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
    def test_gaussian_tails_match_ndtr(self, sigma, tol):
        k = build_kernel("gaussian", spacing=0.05, tail_tolerance=tol,
                         sigma=sigma)
        half = 1
        while 2.0 * special.ndtr(-half * 0.05 / sigma) > tol:
            half += 1
        assert k.half_points == half
        R = k.stencil_radius
        for r in np.linspace(-0.9, 0.9, 7) * k.r_max:
            quad = np.sum(k.weights * k.samples * np.exp(-r * k.offsets))
            ref = quad + math.exp(0.5 * (sigma * r) ** 2) * (
                special.ndtr(-(R + sigma**2 * r) / sigma)
                + special.ndtr(-(R - sigma**2 * r) / sigma))
            assert abs(exponential_moment(k, r) - ref) <= 1e-15 * ref
