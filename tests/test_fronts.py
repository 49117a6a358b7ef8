import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.fields import FieldState, Grid, smoothed_step
from frontlab.fronts import (FrontError, fit_exponential_tail,
                             interface_width, lipschitz_estimate,
                             locate_level, steepness,
                             steepness_bound_constant)
from frontlab.kernels import build_kernel, convolve

STEEPNESS_FLOOR = 1e-6


def interface_speed(field, lam, kernel, f):
    """Instantaneous level speed -u_t/u_x at the crossing.

    u_t is reconstructed from the right-hand side J*u - u + f(t,u); u_x
    comes from the co-state when available, else from central differences.
    """
    pos = locate_level(field, lam)
    u_t = convolve(kernel, field) - field.u + f.eval(field.t, field.u)
    w = field.w if field.w is not None else np.gradient(field.u, field.x)
    ut_c = float(np.interp(pos, field.x, u_t))
    ux_c = float(np.interp(pos, field.x, w))
    if abs(ux_c) < STEEPNESS_FLOOR:
        raise FrontError(
            f"|u_x|={abs(ux_c):.3g} below the steepness floor at level {lam}")
    return -ut_c / ux_c


def _tanh_front(grid, center=0.0, width=2.0):
    u = 0.5 * (1.0 - np.tanh((grid.x - center) / width))
    return FieldState(t=0.0, x=grid.x, u=u)


class TestLocateLevel:
    def test_exact_for_linear_ramp(self):
        # piecewise-linear interpolation is exact on a linear profile
        grid = Grid(-10.0, 10.0, 101)
        u = np.clip(0.5 - grid.x / 20.0, 0.0, 1.0)
        field = FieldState(t=0.0, x=grid.x, u=u)
        for lam in (0.1, 0.25, 0.3, 0.49):
            assert locate_level(field, lam) == pytest.approx(
                20.0 * (0.5 - lam), abs=1e-12)

    def test_tanh_inverse(self):
        grid = Grid(-20.0, 20.0, 4001)
        field = _tanh_front(grid, center=1.5, width=2.0)
        # u = lam  <=>  x = center + width*atanh(1-2 lam)
        for lam in (0.2, 0.3, 0.5, 0.8):
            exact = 1.5 + 2.0 * np.arctanh(1.0 - 2.0 * lam)
            assert locate_level(field, lam) == pytest.approx(exact, abs=1e-5)

    def test_unbracketed_raises(self):
        grid = Grid(-10.0, 10.0, 101)
        field = _tanh_front(grid)
        with pytest.raises(FrontError):
            locate_level(field.with_(u_left=0.4), 0.5)

    def test_nonmonotone_strict_raises(self):
        grid = Grid(-10.0, 10.0, 201)
        field = _tanh_front(grid)
        u = field.u.copy()
        u[120] += 0.05
        bad = field.with_(u=u)
        with pytest.raises(FrontError):
            locate_level(bad, 0.3)
        # non-strict mode tolerates the bump
        assert np.isfinite(locate_level(bad, 0.3, strict=False))

    @given(center=st.floats(-5.0, 5.0), lam=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_shift_equivariance(self, center, lam):
        grid = Grid(-20.0, 20.0, 1601)
        base = locate_level(_tanh_front(grid, 0.0), lam)
        moved = locate_level(_tanh_front(grid, center), lam)
        assert moved - base == pytest.approx(center, abs=1e-3)


class TestWidthAndTracks:
    def test_width_tanh(self):
        grid = Grid(-30.0, 30.0, 6001)
        field = _tanh_front(grid, width=2.0)
        eps = 0.01
        exact = 2.0 * 2.0 * np.arctanh(1.0 - 2.0 * eps)
        assert interface_width(field, eps) == pytest.approx(exact, abs=1e-4)

    def test_width_eps_range(self):
        grid = Grid(-10.0, 10.0, 201)
        field = _tanh_front(grid)
        for eps in (0.0, 0.5, -0.1):
            with pytest.raises(FrontError):
                interface_width(field, eps)


class TestInterfaceSpeed:
    def test_matches_track_speed(self, front_run, kernel, f):
        snap = front_run.trajectory.at_time(20.0)
        v_inst = interface_speed(snap, 0.3, kernel, f)
        ts, xs = front_run.interface_track()
        sel = (ts >= 18.0) & (ts <= 22.0)
        v_avg = np.polyfit(ts[sel], xs[sel], 1)[0]
        assert v_inst == pytest.approx(v_avg, rel=0.05)

    def test_flat_profile_raises(self, kernel, f):
        grid = Grid(-10.0, 10.0, 401)
        field = _tanh_front(grid, width=2.0)
        flat = field.with_(w=np.zeros(grid.n))
        with pytest.raises(FrontError):
            interface_speed(flat, 0.3, kernel, f)


class TestTailFit:
    def test_recovers_synthetic_rates(self):
        grid = Grid(-40.0, 40.0, 1601)
        rate_r, rate_l = 0.31, 0.84
        u = np.where(grid.x >= 0.0, 0.3 * np.exp(-rate_r * grid.x),
                     1.0 - 0.7 * np.exp(rate_l * grid.x))
        field = FieldState(t=0.0, x=grid.x, u=u)
        fit = fit_exponential_tail(field, "right", x_from=5.0)
        assert fit.rate == pytest.approx(rate_r, rel=1e-10)
        assert fit.amplitude == pytest.approx(0.3, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        left = fit_exponential_tail(field, "left", x_to=-5.0,
                                    values=field.u - 1.0)
        # u - 1 loses ~8 digits near u ~= 1, so the left fit is looser
        assert left.rate == pytest.approx(rate_l, rel=1e-6)
        assert left.amplitude == pytest.approx(0.7, rel=1e-5)

    def test_magnitude_band_clips_window(self):
        grid = Grid(0.0, 80.0, 1601)
        u = np.exp(-0.5 * grid.x)
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1.0, u_right=0.0)
        fit = fit_exponential_tail(field, "right")
        # default band (1e-12, 1e-2): x in [ln(100)/0.5, ln(1e12)/0.5]
        assert fit.window[0] >= np.log(1e2) / 0.5 - grid.h
        assert fit.window[1] <= np.log(1e12) / 0.5 + grid.h

    def test_rejects_sign_changes(self):
        grid = Grid(0.0, 40.0, 401)
        u = 1e-3 * np.sin(grid.x) * np.exp(-0.1 * grid.x)
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1e-3, u_right=0.0)
        with pytest.raises(FrontError):
            fit_exponential_tail(field, "right", x_from=1.0)

    def test_too_few_points(self):
        grid = Grid(0.0, 40.0, 401)
        field = FieldState(t=0.0, x=grid.x, u=np.exp(-0.5 * grid.x),
                           u_left=1.0, u_right=0.0)
        with pytest.raises(FrontError):
            fit_exponential_tail(field, "right", x_from=39.5)

    def test_bad_side(self):
        grid = Grid(0.0, 10.0, 101)
        field = FieldState(t=0.0, x=grid.x, u=np.exp(-grid.x),
                           u_left=1.0, u_right=0.0)
        with pytest.raises(FrontError):
            fit_exponential_tail(field, "up")

    def test_noisy_tail_low_r2_not_accepted(self):
        rng = np.random.default_rng(7)
        grid = Grid(0.0, 40.0, 401)
        u = 1e-4 * np.exp(rng.normal(0.0, 1.5, grid.n))
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1e-4, u_right=0.0)
        fit = fit_exponential_tail(field, "right", band=(1e-12, 1.0))
        assert fit.r_squared < 0.98


class TestSteepness:
    def test_known_derivative(self):
        grid = Grid(-10.0, 10.0, 2001)
        field = _tanh_front(grid, width=2.0)
        w = -0.5 / 2.0 / np.cosh(grid.x / 2.0) ** 2
        field = field.with_(w=w)
        # max of u_x over [-1, 1] is attained at the endpoints
        exact = -0.25 / np.cosh(0.5) ** 2
        assert steepness(field, 0.0, 1.0) == pytest.approx(exact, abs=1e-9)

    def test_requires_w(self):
        grid = Grid(-10.0, 10.0, 201)
        with pytest.raises(FrontError):
            steepness(_tanh_front(grid), 0.0, 1.0)

    def test_interval_inside_window(self):
        grid = Grid(-10.0, 10.0, 201)
        field = _tanh_front(grid).with_(w=np.zeros(grid.n))
        with pytest.raises(FrontError):
            steepness(field, 9.5, 1.0)

    def test_lipschitz_estimate(self):
        x = np.linspace(0.0, 1.0, 101)
        assert lipschitz_estimate(3.0 * x, 0.01) == pytest.approx(3.0)
        assert lipschitz_estimate(np.sin(4 * x), 0.01) == pytest.approx(
            4.0, rel=1e-2)
        with pytest.raises(FrontError):
            lipschitz_estimate(np.array([1.0]), 0.01)


class TestSteepnessBoundConstant:
    def test_value_formula(self, kernel):
        const = steepness_bound_constant(kernel, c_fu=27.166, dt=1.0)
        expected = (const.c_tilde * math.exp(-(1.0 + const.K) * const.dt)
                    * (const.dt / const.N) ** const.N)
        assert const.value == pytest.approx(expected, rel=1e-15)
        assert const.value > 0.0
        assert const.K == 27.166

    def test_gaussian_uses_first_order(self, kernel):
        # the Gaussian stencil already covers [-1, 1] with positive mass
        const = steepness_bound_constant(kernel, c_fu=1.0, dt=0.05)
        assert const.N == 1
        # inf over [-1,1] padded by one sample of the unit Gaussian density
        lo = math.exp(-0.5 * 1.05 ** 2) / math.sqrt(2 * math.pi)
        hi = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert lo * 0.999 <= const.c_tilde <= hi * 1.001

    def test_wide_offset_needs_iteration(self):
        # the bump of half-width 0.5 reaches only [-0.5, 0.5], and J*J
        # vanishes at +-(1 + h), one sample beyond [-1, 1]: only J^3 is
        # positive there
        bump = build_kernel("bump", spacing=0.05, tail_tolerance=1e-6, a=0.5)
        const = steepness_bound_constant(bump, c_fu=1.0, dt=0.05)
        assert const.N == 3

    def test_invalid_args(self, kernel):
        with pytest.raises(FrontError):
            steepness_bound_constant(kernel, 1.0, dt=0.0)
