import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.fields import FieldState, Grid, SolverError, pchip_far_fields
from frontlab.fronts import (check_steepness_bound, fit_exponential_tail,
                             interface_width, locate_level, on_interval,
                             steepness, steepness_bound_constant)
from frontlab.kernels import build_kernel, convolve
from theorem_helpers import lipschitz_estimate
from trajectory_helpers import at_time

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
        raise SolverError(
            f"|u_x|={abs(ux_c):.3g} below the steepness floor at level {lam}")
    return -ut_c / ux_c


def _tanh_front(grid, center=0.0, width=2.0):
    u = 0.5 * (1.0 - np.tanh((grid.x - center) / width))
    return FieldState(t=0.0, x=grid.x, u=u)


class TestLocateLevel:
    def test_exact_for_linear_ramp(self):
        # PCHIP reproduces a linear profile, so its crossing is exact
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

    def test_crossing_is_a_root_of_the_profile_interpolant(self, front_run,
                                                           f):
        # the one PCHIP interpolant that shifts profiles also locates
        # every level, so each crossing maps back onto its level
        for snap in front_run.snapshots:
            fn = pchip_far_fields(snap.x, snap.u, 1.0, 0.0)
            for lam in (0.05, f.theta, 0.5, 0.95):
                assert abs(fn(locate_level(snap, lam)) - lam) <= 1e-14

    def test_unbracketed_raises(self):
        grid = Grid(-10.0, 10.0, 101)
        field = _tanh_front(grid)
        with pytest.raises(SolverError):
            locate_level(field.with_(u_left=0.4), 0.5)

    def test_nonmonotone_strict_raises(self):
        grid = Grid(-10.0, 10.0, 201)
        field = _tanh_front(grid)
        u = field.u.copy()
        u[120] += 0.05
        bad = field.with_(u=u)
        with pytest.raises(SolverError):
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
            with pytest.raises(ValueError):
                interface_width(field, eps)


class TestInterfaceSpeed:
    def test_matches_track_speed(self, front_run, kernel, f):
        snap = at_time(front_run.trajectory, 20.0)
        v_inst = interface_speed(snap, 0.3, kernel, f)
        ts, xs = front_run.times, front_run.track
        sel = (ts >= 18.0) & (ts <= 22.0)
        v_avg = np.polyfit(ts[sel], xs[sel], 1)[0]
        assert v_inst == pytest.approx(v_avg, rel=0.05)

    def test_flat_profile_raises(self, kernel, f):
        grid = Grid(-10.0, 10.0, 401)
        field = _tanh_front(grid, width=2.0)
        flat = field.with_(w=np.zeros(grid.n))
        with pytest.raises(SolverError):
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
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        left = fit_exponential_tail(field, "left", x_to=-5.0,
                                    values=field.u - 1.0)
        # u - 1 loses ~8 digits near u ~= 1, so the left fit is looser
        assert left.rate == pytest.approx(rate_l, rel=1e-6)

    def test_magnitude_band_clips_window(self):
        # rate 0.5 on the default band (1e-10, 1e-2), x in [ln(100)/0.5,
        # ln(1e10)/0.5], and rate 2 outside it: the fit reads the band alone
        grid = Grid(0.0, 80.0, 1601)
        inside = np.clip(grid.x, np.log(1e2) / 0.5, np.log(1e10) / 0.5)
        u = np.exp(-0.5 * inside - 2.0 * (grid.x - inside))
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1.0, u_right=0.0)
        fit = fit_exponential_tail(field, "right")
        assert fit.rate == pytest.approx(0.5, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_sign_changes(self):
        grid = Grid(0.0, 40.0, 401)
        u = 1e-3 * np.sin(grid.x) * np.exp(-0.1 * grid.x)
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1e-3, u_right=0.0)
        with pytest.raises(SolverError):
            fit_exponential_tail(field, "right", x_from=1.0)

    def test_too_few_points(self):
        grid = Grid(0.0, 40.0, 401)
        field = FieldState(t=0.0, x=grid.x, u=np.exp(-0.5 * grid.x),
                           u_left=1.0, u_right=0.0)
        with pytest.raises(SolverError):
            fit_exponential_tail(field, "right", x_from=39.5)

    def test_bad_side(self):
        grid = Grid(0.0, 10.0, 101)
        field = FieldState(t=0.0, x=grid.x, u=np.exp(-grid.x),
                           u_left=1.0, u_right=0.0)
        with pytest.raises(ValueError):
            fit_exponential_tail(field, "up")

    def test_noisy_tail_low_r2_not_accepted(self):
        rng = np.random.default_rng(7)
        grid = Grid(0.0, 40.0, 401)
        # every point inside the fitted band [1e-10, 1e-2]
        u = 1e-6 * np.exp(rng.normal(0.0, 1.5, grid.n))
        field = FieldState(t=0.0, x=grid.x, u=u, u_left=1e-6, u_right=0.0)
        fit = fit_exponential_tail(field, "right")
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
        with pytest.raises(ValueError):
            steepness(_tanh_front(grid), 0.0, 1.0)

    def test_interval_inside_window(self):
        grid = Grid(-10.0, 10.0, 201)
        field = _tanh_front(grid).with_(w=np.zeros(grid.n))
        with pytest.raises(ValueError):
            steepness(field, 9.5, 1.0)

    def test_lipschitz_estimate(self):
        x = np.linspace(0.0, 1.0, 101)
        assert lipschitz_estimate(3.0 * x, 0.01) == pytest.approx(3.0)
        assert lipschitz_estimate(np.sin(4 * x), 0.01) == pytest.approx(
            4.0, rel=1e-2)
        with pytest.raises(ValueError):
            lipschitz_estimate(np.array([1.0]), 0.01)


def _gaussian_density(x, var):
    return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


class TestOnInterval:
    def test_ends_are_interpolated(self):
        x = np.linspace(0.0, 1.0, 11)
        # lo is the node 0.2, which is not repeated; hi lies between nodes
        xs, vs = on_interval(x, 3.0 * x, 0.2, 0.65)
        assert xs[0] == 0.2 and xs[-1] == 0.65 and xs.size == 6
        assert np.all(np.diff(xs) > 0.0)
        assert np.allclose(vs, 3.0 * xs, rtol=0.0, atol=1e-15)
        # the trapezoid of a linear function on exactly [lo, hi] is exact
        assert np.trapezoid(vs, xs) == pytest.approx(
            1.5 * (0.65**2 - 0.2**2), rel=1e-14)

    def test_steepness_bound_integrates_to_the_exact_ends(self):
        # w = -1 everywhere: the integral over [x-1, x+1] is -2 wherever x
        # falls between the nodes
        grid = Grid(-5.0, 5.0, 101)
        snap = FieldState(t=0.0, x=grid.x, u=np.zeros(grid.n), u_left=1.0,
                          u_right=0.0, w=-np.ones(grid.n))
        for x in (0.0, 0.03, 0.51):
            assert check_steepness_bound(snap, snap, 1.0, x)[1] == (
                pytest.approx(-2.0, rel=1e-13))


class TestSteepnessBoundConstant:
    def test_value_formula(self, kernel):
        const, order = steepness_bound_constant(kernel, c_fu=27.166, dt=1.0)
        # N = 1: C = J(1) e^{-(1+K) dt} dt with J the unit Gaussian; the
        # stencil's renormalization raises J by its lost tail mass,
        # 2 Phi(-4.9) = 9.6e-7, inside the tail tolerance 1e-6
        expected = _gaussian_density(1.0, 1.0) * math.exp(-28.166)
        assert order == 1
        assert const == pytest.approx(expected, rel=1e-6)

    def test_gaussian_uses_first_order(self, kernel):
        # the Gaussian stencil already covers [-1, 1] with positive mass,
        # and the infimum over exactly [-1, 1] is J(1), not J(1 + h)
        const, order = steepness_bound_constant(kernel, c_fu=1.0, dt=0.05)
        assert order == 1
        inf_j = const / (math.exp(-2.0 * 0.05) * 0.05)
        assert inf_j == pytest.approx(_gaussian_density(1.0, 1.0), rel=1e-5)

    def test_narrow_gaussian_needs_second_order(self):
        # the stencil of sigma = 0.18 reaches only 0.9, so J^2 = N(0, 2
        # sigma^2) sets the constant, from its value at 1
        sigma, dt = 0.18, 0.05
        narrow = build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                              sigma=sigma)
        assert narrow.stencil_radius < 1.0
        const, order = steepness_bound_constant(narrow, c_fu=1.0, dt=dt)
        assert order == 2
        expected = (_gaussian_density(1.0, 2.0 * sigma**2)
                    * math.exp(-2.0 * dt) * (dt / 2.0) ** 2)
        assert const == pytest.approx(expected, rel=1e-3)

    def test_wide_offset_needs_iteration(self):
        # the bump of half-width 0.5 reaches only [-0.5, 0.5], and J*J
        # vanishes at +-1, the ends of its stencil: only J^3 is positive on
        # all of [-1, 1]
        bump = build_kernel("bump", spacing=0.05, tail_tolerance=1e-6, a=0.5)
        assert steepness_bound_constant(bump, c_fu=1.0, dt=0.05)[1] == 3

    def test_invalid_args(self, kernel):
        with pytest.raises(ValueError):
            steepness_bound_constant(kernel, 1.0, dt=0.0)

    def test_flattened_front_violates_the_bound(self, kernel, f, front_run):
        # the gate of `frontlab steepness` can fail: a later snapshot with
        # w scaled by 0.01 is far less steep than the bound allows, while
        # the computed pair holds it
        const, _ = steepness_bound_constant(kernel, f.lipschitz_bound(),
                                            1.0)
        before, after = front_run.snapshots[-2:]
        x = locate_level(after, f.theta)
        lhs, rhs = check_steepness_bound(before, after, const, x)
        assert lhs <= rhs
        flat = after.with_(w=0.01 * after.w)
        lhs, rhs = check_steepness_bound(before, flat, const, x)
        assert lhs > rhs + 1e-3
