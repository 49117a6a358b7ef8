import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import stability
from frontlab.evolve import evolve
from frontlab.fields import (FieldState, Grid, SolverError, profile_interp,
                             smoothed_step)
from frontlab.fronts import locate_level
from frontlab.kernels import exponential_moment
from frontlab.stability import (GammaFunction, PerturbationEnvelope,
                                assemble_parameters, best_shift,
                                comparison_test, find_m2, fit_log_decay,
                                gamma_convolution, make_perturbed_initial,
                                run_stability_experiment, sandwich_margins)
from theorem_helpers import subsupersolution_residual
from trajectory_helpers import at_time

DT = 0.05


class TestGammaFunction:
    def test_branch_values(self):
        g = GammaFunction(alpha=0.05, M1=6.0)
        x = np.array([-50.0, 0.0, 5.0])
        assert np.all(g(x) == 1.0)
        xr = np.array([7.0, 10.0, 30.0])
        assert np.allclose(g(xr), np.exp(-0.05 * (xr - 6.0)), atol=1e-15)
        # blend midpoint: exponent alpha/4 * (x - M1 + 1)^2 at x = M1
        assert g(np.array([6.0]))[0] == pytest.approx(
            math.exp(-0.05 / 4.0), rel=1e-14)

    def test_c1_gluing(self):
        # one-sided difference quotients of g agree across each knot, so
        # g has neither a jump nor a kink there
        g = GammaFunction(alpha=0.05, M1=6.0)
        h = 1e-6
        for knot in (5.0, 7.0):
            left, mid, right = g(np.array([knot - h, knot, knot + h]))
            assert (mid - left) / h == pytest.approx((right - mid) / h,
                                                     abs=1e-7)

    @given(alpha=st.floats(0.01, 2.0), m1=st.floats(0.5, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_bounded(self, alpha, m1):
        g = GammaFunction(alpha, m1)
        xs = np.linspace(m1 - 30.0, m1 + 30.0, 500)
        vals = g(xs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals > 0.0) & (vals <= 1.0))

    def test_make_gamma_validation(self):
        with pytest.raises(ValueError):
            GammaFunction(0.0, 5.0)
        with pytest.raises(ValueError):
            GammaFunction(2.5, 5.0)
        with pytest.raises(ValueError):
            GammaFunction(0.1, 0.0)


class TestGammaConvolution:
    def test_flat_region_is_one(self, kernel):
        g = GammaFunction(0.05, 8.0)
        xs = np.array([-20.0, -10.0, 0.0])
        vals = gamma_convolution(kernel, g, xs)
        assert np.allclose(vals, 1.0, atol=2e-6)

    def test_exponential_region_moment(self, kernel):
        # right of M1+1+R the convolution is Gamma(x) * I(alpha)
        alpha, m1 = 0.05, 8.0
        g = GammaFunction(alpha, m1)
        xs = np.array([m1 + 1.0 + 6.0, m1 + 1.0 + 10.0])
        expected = g(xs) * exponential_moment(kernel, alpha)
        assert np.allclose(gamma_convolution(kernel, g, xs), expected,
                           rtol=1e-10, atol=2e-6)


class TestParameters:
    def test_assembly_formulas(self):
        p = assemble_parameters(theta=0.3, theta_tilde=0.9,
                                beta_tilde=0.108, c_fu=1.408,
                                c_steep=0.0068, c_min=0.11,
                                alpha=0.05, M1=6.4, M2=7.9)
        assert p.A == pytest.approx((2 * 1.408 + 1.0) / 0.0068, rel=1e-14)
        assert p.eps0 == pytest.approx(
            min(0.05, 0.15, 1.0 / (4 * p.A), 0.11 / (4 * p.A)), rel=1e-14)
        assert p.omega == pytest.approx(
            min(0.108, 0.25 * 0.05 * 0.11), rel=1e-14)
        with pytest.raises(SolverError):
            assemble_parameters(0.3, 0.9, 0.108, 1.408, 0.0, 0.11,
                                0.05, 6.4, 7.9)

    def test_selected_parameters(self, sparams):
        # frozen values for the default problem
        assert sparams.alpha == 0.05
        assert sparams.M1 == pytest.approx(6.41, abs=0.3)
        assert sparams.M2 == pytest.approx(7.91, abs=0.5)
        assert sparams.c_steep == pytest.approx(6.8e-3, rel=0.15)
        assert sparams.A == pytest.approx(560.0, rel=0.15)
        assert sparams.eps0 == pytest.approx(5.9e-5, rel=0.2)
        assert sparams.omega == pytest.approx(1.65e-3, rel=0.15)
        assert sparams.omega <= sparams.beta_tilde

    def test_find_m2_rejects_fat_alpha(self, kernel):
        # I(2) - 1 for the unit Gaussian is e^2 - 1, far above the bound
        g = GammaFunction(2.0, 6.0)
        with pytest.raises(SolverError):
            find_m2(kernel, g, c_min=0.11)

    def test_find_m2_defect_bounded(self, kernel, sparams):
        m2 = sparams.M2
        g = sparams.gamma
        xs = np.arange(m2, m2 + 30.0, 0.5)
        err = np.abs(np.exp(sparams.alpha * (xs - sparams.M1))
                     * gamma_convolution(kernel, g, xs) - 1.0)
        assert np.max(err) <= 0.25 * sparams.alpha * sparams.c_min + 1e-12


class TestEnvelope:
    def _env(self):
        return PerturbationEnvelope(t0=10.0, eps=1e-4, omega=2e-3, A=500.0)

    def test_initial_values(self):
        env = self._env()
        zm, zp, q = env.eval(10.0)
        assert q == 1e-4
        assert zm == 0.0 and zp == 0.0

    def test_q_half_life(self):
        env = self._env()
        t_half = 10.0 + math.log(2.0) / 2e-3
        assert env.q(t_half) == pytest.approx(0.5e-4, rel=1e-12)

    def test_shift_limits(self):
        env = self._env()
        drift = 500.0 * 1e-4 / 2e-3
        assert env.zeta_plus(1e9) == pytest.approx(drift, rel=1e-6)
        assert env.zeta_minus(1e9) == pytest.approx(-drift, rel=1e-6)
        # monotone: zeta_minus decreasing, zeta_plus increasing
        ts = np.linspace(10.0, 5000.0, 50)
        assert np.all(np.diff(env.zeta_plus(ts)) > 0.0)
        assert np.all(np.diff(env.zeta_minus(ts)) < 0.0)

    def test_no_drift_before_t0(self):
        # a hair before t0, inside the guard's tolerance, the shifts stay 0
        zm, zp, _ = self._env().eval(10.0 - 5e-13)
        assert zm == 0.0 and zp == 0.0

    def test_before_t0_raises(self):
        with pytest.raises(ValueError):
            self._env().q(9.0)


class TestProfileInterp:
    def test_nodes_and_far_fields(self, front_run):
        snap = at_time(front_run.trajectory, 0.0)
        fn = profile_interp(snap)
        assert np.max(np.abs(fn(snap.x) - snap.u)) < 1e-13
        assert fn(np.array([-1e4]))[0] == snap.u_left
        assert fn(np.array([1e4]))[0] == snap.u_right

    def test_monotone_between_nodes(self, front_run):
        snap = at_time(front_run.trajectory, 0.0)
        fn = profile_interp(snap)
        xs = np.linspace(-30.0, 30.0, 7919)
        assert np.all(np.diff(fn(xs)) <= 1e-15)


class TestBestShift:
    def test_recovers_known_shift(self, front_run):
        ref = at_time(front_run.trajectory, 40.0)
        fn = profile_interp(ref)
        z_true = 1.2345
        shifted = ref.with_(u=fn(ref.x - z_true))
        z, d = best_shift(shifted, ref)
        assert z == pytest.approx(z_true, abs=2e-4)
        assert d < 1e-6

    def test_bracket_miss_clamps_to_endpoint(self, front_run):
        # a bracket that misses the minimum converges to the nearer edge
        ref = at_time(front_run.trajectory, 40.0)
        fn = profile_interp(ref)
        shifted = ref.with_(u=fn(ref.x - 1.0))
        z, d = best_shift(shifted, ref, bracket=(5.0, 9.0))
        assert z == pytest.approx(5.0, abs=1e-3)
        assert d > best_shift(shifted, ref)[1]

    def test_auto_bracket_centers_on_crossings(self, front_run):
        ref = at_time(front_run.trajectory, 40.0)
        fn = profile_interp(ref)
        big = 6.5   # outside any (z-1, z+1) incremental bracket
        shifted = ref.with_(u=fn(ref.x - big))
        z, d = best_shift(shifted, ref, bracket=None)
        assert z == pytest.approx(big, abs=2e-4)
        assert d < 1e-5   # window-truncation mismatch at the far fields


class TestFitLogDecay:
    def test_recovers_synthetic_decay(self):
        ts = np.linspace(0.0, 3000.0, 200)
        ds = 5e-3 * np.exp(-1.7e-3 * ts)
        rate, amp, r2 = fit_log_decay(ts, ds)
        assert rate == pytest.approx(1.7e-3, rel=1e-6)
        assert amp == pytest.approx(5e-3, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_plateau_trimmed(self):
        # the decay crosses 3e-8 near t = 7070 and flattens at 1e-8
        ts = np.linspace(0.0, 10000.0, 300)
        ds = np.maximum(5e-3 * np.exp(-1.7e-3 * ts), 1e-8)
        assert np.count_nonzero(ds < 3e-8) > 50
        rate, _, r2 = fit_log_decay(ts, ds)
        assert rate == pytest.approx(1.7e-3, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        ts = np.linspace(0.0, 10.0, 20)
        with pytest.raises(SolverError):
            fit_log_decay(ts, np.full(20, 1e-12))


class TestPerturbedInitial:
    def test_clip_and_shape_guard(self, front_run, sparams):
        snap = at_time(front_run.trajectory, 60.0)
        x_ref = locate_level(snap, 0.3)
        u0 = make_perturbed_initial(snap, sparams.gamma, x_ref, sparams.eps0)
        assert np.all((u0.u >= 0.0) & (u0.u <= 1.0))
        assert np.max(np.abs(u0.u - snap.u)) <= sparams.eps0 + 1e-15


class TestSandwichMargins:
    GRID = Grid(-30.0, 30.0, 1201)
    GAMMA = GammaFunction(0.05, 6.0)

    def _margins(self, pert, z_minus, z_plus, q):
        ref = smoothed_step(self.GRID)
        return sandwich_margins(pert, ref, self.GAMMA, 0.0, z_minus, z_plus,
                                q)

    def test_reference_sits_on_the_band(self):
        viol, inner, dist = self._margins(smoothed_step(self.GRID),
                                          0.0, 0.0, 0.0)
        assert viol == pytest.approx(0.0, abs=1e-15)
        assert inner == pytest.approx(0.0, abs=1e-15)
        assert dist == pytest.approx(0.0, abs=1e-15)

    def test_shift_outside_the_band_and_wider_band(self):
        shifted = smoothed_step(self.GRID, center=1.0)
        viol, inner, dist = self._margins(shifted, 0.0, 0.0, 0.0)
        assert viol > 0.1 and dist > 0.1 and inner == viol
        _, _, dist = self._margins(shifted, 0.0, 1.5, 0.0)
        assert dist == 0.0

    def test_interior_skips_nodes_shifted_out_of_the_window(self):
        # a dip on x < -28.5: there x - z+ leaves the window for z+ = 1.5
        ref = smoothed_step(self.GRID)
        dipped = ref.with_(u=np.where(self.GRID.x < -28.6, 0.5, ref.u))
        viol, inner, _ = self._margins(dipped, 0.0, 1.5, 0.01)
        assert viol > 0.4
        assert inner <= 0.0


class TestResiduals:
    def test_residuals_small_and_sabotage_detected(self, fine_traj, sparams,
                                                   kernel, f, x_track):
        snaps = fine_traj.snapshots[:61]   # t in [30, 36]
        env = PerturbationEnvelope(t0=snaps[0].t, eps=sparams.eps0,
                                   omega=sparams.omega, A=sparams.A)
        for sign in (-1, +1):
            series = subsupersolution_residual(snaps, x_track, sparams, env,
                                               sign, kernel, f)
            bad = series.sup_residual if sign < 0 else -series.inf_residual
            assert bad <= 1e-4
        # dropping the drift term (A = 0) at an inflated eps must be caught
        bad_params = dataclasses.replace(sparams, A=0.0, eps0=0.05)
        bad_env = PerturbationEnvelope(t0=snaps[0].t, eps=0.05,
                                       omega=sparams.omega, A=0.0)
        series = subsupersolution_residual(snaps, x_track, bad_params,
                                           bad_env, -1, kernel, f)
        assert series.sup_residual > 1e-3

    def test_eps_guard(self, fine_traj, sparams, kernel, f, x_track):
        env = PerturbationEnvelope(t0=30.0, eps=10.0 * sparams.eps0,
                                   omega=sparams.omega, A=sparams.A)
        with pytest.raises(ValueError, match="eps exceeds eps0"):
            subsupersolution_residual(fine_traj.snapshots[:10], x_track,
                                      sparams, env, -1, kernel, f)


class TestStabilityExperiment:
    def test_sabotaged_drift_breaks_the_sandwich(self, front_run, kernel, f,
                                                 sparams):
        # without the shift drift A the band cannot follow the perturbed
        # front: the gate must fail
        report = run_stability_experiment(
            at_time(front_run.trajectory, 60.0), kernel, f,
            dataclasses.replace(sparams, A=0.0), horizon=200.0, dt=DT)
        assert report.worst_violation > 1e-6 + report.edge_defect
        assert report.interior_worst_violation <= report.worst_violation

    @pytest.mark.parametrize("viol, count", [(np.spacing(1.0), 0),
                                             (1e-12, 1)])
    def test_violation_count_skips_rounding_ties(self, monkeypatch,
                                                 front_run, kernel, f,
                                                 sparams, viol, count):
        # the initial sandwich holds; the one paired snapshot then reads
        # viol, which is counted only past a few ulps of u <= 1
        margins = iter([(0.0, 0.0, 0.0), (viol, viol, 0.0)])
        monkeypatch.setattr(stability, "sandwich_margins",
                            lambda *args: next(margins))
        monkeypatch.setattr(stability, "_paired_snapshots",
                            lambda pair, *args: [(pair.lane(1),
                                                  pair.lane(0))])
        report = run_stability_experiment(
            front_run.snapshots[-1].with_(w=None), kernel, f, sparams,
            horizon=2.0, dt=DT)
        assert report.violation_count == count
        assert report.worst_violation == viol  # reported raw


class TestComparison:
    def test_ordered_pair_stays_ordered(self, kernel, f):
        grid = Grid(-40.0, 40.0, 1601)
        lo = smoothed_step(grid, center=-1.0)
        hi = smoothed_step(grid, center=1.0)
        (margin,) = comparison_test(lo, hi, kernel, f, t_end=10.0, dt=DT)
        assert margin >= -1e-8

    def test_pair_margin_is_min_over_separate_evolves(self, kernel, f):
        grid = Grid(-40.0, 40.0, 1601)
        lo = smoothed_step(grid, center=-1.0)
        hi = lo.with_(u=np.clip(lo.u + 0.2 * np.exp(-grid.x**2), 0.0, 1.0))
        (margin,) = comparison_test(lo, hi, kernel, f, t_end=3.0, dt=DT)
        tu, tv = (evolve(s, kernel, f, 3.0, DT, snapshot_every=1.0)
                  for s in (lo, hi))
        assert margin == min(
            float(np.min(sv.u - su.u))
            for su, sv in zip(tu.snapshots, tv.snapshots, strict=True))

    def test_unordered_rejected(self, kernel, f):
        grid = Grid(-40.0, 40.0, 1601)
        lo = smoothed_step(grid, center=1.0)
        hi = smoothed_step(grid, center=-1.0)
        with pytest.raises(ValueError, match="not ordered"):
            comparison_test(lo, hi, kernel, f, t_end=1.0, dt=DT)

    @staticmethod
    def _lane_batch(pairs):
        """pairs ordered pairs on one window, as lanes of (lo, hi)."""
        grid = Grid(-30.0, 30.0, 1201)
        lo = [smoothed_step(grid, center=c, width=1.0 + 0.5 * i)
              for i, c in enumerate(np.linspace(-4.0, 4.0, pairs))]
        hi = [s.with_(u=np.clip(s.u + 0.2 * np.exp(-(grid.x - 3.0 * i)**2),
                                0.0, 1.0)) for i, s in enumerate(lo)]
        return lo, hi, *(FieldState(t=0.0, x=grid.x,
                                    u=np.stack([s.u for s in side]),
                                    u_left=np.ones(pairs),
                                    u_right=np.zeros(pairs))
                         for side in (lo, hi))

    def test_lane_batch_margins_equal_single_pairs(self, kernel, f):
        lo, hi, lo_lanes, hi_lanes = self._lane_batch(5)
        margins = comparison_test(lo_lanes, hi_lanes, kernel, f, t_end=2.0,
                                  dt=DT)
        singles = [comparison_test(a, b, kernel, f, t_end=2.0, dt=DT)
                   for a, b in zip(lo, hi)]
        # one lane is a batch of one
        assert all(m.shape == (1,) for m in singles)
        assert margins.shape == (5,)
        assert margins.tolist() == [m[0] for m in singles]

    @pytest.mark.parametrize("field", ["u", "u_left", "u_right"])
    def test_unordered_lane_in_batch_rejected(self, kernel, f, field):
        _, _, lo, hi = self._lane_batch(5)
        # lane 3 of hi drops below lo in one node or one far field
        value = getattr(hi, field).copy()
        if field == "u":
            value[3, 600] = lo.u[3, 600] - 1e-9
        else:
            value[3] = -1.0
        with pytest.raises(ValueError, match="not ordered"):
            comparison_test(lo, hi.with_(**{field: value}), kernel, f,
                            t_end=1.0, dt=DT)
