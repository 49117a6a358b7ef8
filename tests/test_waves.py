import numpy as np
import pytest

from frontlab import waves
from frontlab.fields import Grid, smoothed_step
from frontlab.kernels import build_kernel, convolve, subsample_kernel
from frontlab.fields import FieldState
from frontlab.waves import WaveError, solve_traveling_wave
from frontlab.reactions import max_slice, min_slice


def stationary_residual(tw, kernel, f_hom):
    """Independent evaluation of J*phi - phi + c phi' + f(phi)."""
    fld = FieldState(t=0.0, x=tw.x, u=tw.phi, u_left=1.0, u_right=0.0)
    conv = convolve(kernel, fld)
    return conv - tw.phi + tw.speed * tw.dphi + f_hom.eval(0.0, tw.phi)


class TestSolveTravelingWave:
    def test_speeds(self, tw_min, tw_max):
        assert tw_min.speed == pytest.approx(0.11230, abs=2e-4)
        assert tw_max.speed == pytest.approx(0.15685, abs=2e-4)
        assert 0.0 < tw_min.speed < tw_max.speed

    def test_speeds_match_the_sparse_lu_solver(self, tw_min, tw_max):
        # c* on [-60, 60] as the sparse LU of the whole bordered matrix
        # computed it; the banded solve agrees to about 1e-14
        assert abs(tw_min.speed - 0.112296512834121) <= 1e-10
        assert abs(tw_max.speed - 0.156853029572745) <= 1e-10

    def test_residual_norm(self, tw_min, tw_max):
        assert tw_min.residual_norm <= 1e-8
        assert tw_max.residual_norm <= 1e-8

    def test_residual_independent_evaluation(self, tw_min, kernel, f):
        res = stationary_residual(tw_min, kernel, min_slice(f))
        interior = np.abs(tw_min.x) <= 40.0
        assert np.max(np.abs(res[interior])) < 1e-8

    def test_phase_condition(self, tw_min, f):
        i0 = int(np.argmin(np.abs(tw_min.x)))
        assert tw_min.phi[i0] == pytest.approx(f.theta, abs=1e-10)

    def test_limits_on_wide_window(self, tw_min):
        # the right tail decays slowly (~0.24 per unit), so the 1e-6
        # end-value check needs x well beyond 40
        assert tw_min.phi[-1] <= 1e-6            # phi(60)
        assert tw_min.phi[0] >= 1.0 - 1e-6       # phi(-60)

    def test_monotone_decreasing(self, tw_min):
        assert np.all(np.diff(tw_min.phi) <= 1e-12)
        # strictly decreasing away from the saturated machine plateaus
        core = (tw_min.phi > 1e-12) & (tw_min.phi < 1.0 - 1e-12)
        assert np.all(np.diff(tw_min.phi[core.nonzero()[0]]) < 0.0)

    def test_derivative_consistency(self, tw_min):
        # dphi should match the centered difference of phi
        fd = np.gradient(tw_min.phi, tw_min.x)
        core = (tw_min.phi > 1e-6) & (tw_min.phi < 1.0 - 1e-6)
        assert np.max(np.abs(fd[core] - tw_min.dphi[core])) < 1e-3

    def test_profile_fn_far_fields(self, tw_min):
        fn = tw_min.profile_fn()
        assert fn(np.array([-1000.0]))[0] == 1.0
        assert fn(np.array([1000.0]))[0] == 0.0
        dfn = tw_min.derivative_fn()
        assert dfn(np.array([-1000.0]))[0] == 0.0

    def test_speed_scales_with_amplitude(self, tw_min, tw_max):
        # stronger reaction pushes the front faster; sanity of ordering
        assert tw_max.speed / tw_min.speed > 1.2

    def test_wide_kernel_converges(self, f, wave_grid):
        # sigma = 3; the profile ripples by up to 7.9e-6 on the node pairs
        # of [-60, -59], at the left window edge, so monotonicity is
        # checked on |x| <= 40
        wide = build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                            sigma=3.0)
        tw = solve_traveling_wave(wide, min_slice(f), wave_grid)
        assert tw.residual_norm <= 1e-8
        assert tw.iterations <= 8
        core = np.abs(tw.x) <= 40.0
        assert np.all(np.diff(tw.phi[core]) < 0.0)


def test_newton_step_solves_the_bordered_system(kernel, f, wave_grid,
                                                monkeypatch):
    # the first step from the smoothed step is damped and runs on the
    # coarse grid (every other node, the subsampled kernel): phi and c move
    # by s (delta, dc), and the phase row delta(0) = -phase gives s.  Then
    # (delta, dc) must solve the linearized stationary system, which pins
    # the band layout and the bordering, whatever solves them
    f_hom = min_slice(f)
    residual, states = waves._stationary_residual, []

    def recorded(kernel, f_hom, x, u, c):
        states.append((u.copy(), c))
        return residual(kernel, f_hom, x, u, c)

    monkeypatch.setattr(waves, "_stationary_residual", recorded)
    monkeypatch.setattr(waves, "NEWTON_CAP", 2)
    with pytest.raises(WaveError):
        solve_traveling_wave(kernel, f_hom, wave_grid)
    coarse = Grid(-60.0, 60.0, 1201)
    coarse_kernel = subsample_kernel(kernel)
    (phi0, c0), (phi1, c1) = states[:2]
    np.testing.assert_array_equal(
        phi0, smoothed_step(coarse, center=0.0, width=2.0).u)
    assert c0 == waves.START_SPEED
    i0 = int(np.argmin(np.abs(coarse.x)))
    s = -(phi1[i0] - phi0[i0]) / (phi0[i0] - f_hom.theta)
    delta, dc = (phi1 - phi0) / s, (c1 - c0) / s
    assert 0.0 < s <= 1.0
    assert np.max(np.abs(phi1 - phi0)) == pytest.approx(
        min(0.2, np.max(np.abs(delta))), rel=1e-12)

    def r(eps):
        return residual(coarse_kernel, f_hom, coarse.x, phi0 + eps * delta,
                        c0 + eps * dc)

    eps = 1e-6
    jac_step = (r(eps) - r(-eps)) / (2.0 * eps)
    assert np.max(np.abs(jac_step + r(0.0))) <= 1e-6 * np.max(np.abs(r(0.0)))


class TestTwoLevelSolve:
    #: c* (min slice, max slice) on the default [-50, 50], 2001-node grid,
    #: as the one-level Newton on the fine grid computed it
    ONE_LEVEL = {0.75: (0.08422314068207415, 0.11764169700563333),
                 1.0: (0.11229598783944876, 0.15685301855070366),
                 1.5: (0.16840819708966945, 0.23527415545730818),
                 2.0: (0.22428536244912844, 0.31365203329334695)}

    @pytest.mark.parametrize("sigma", sorted(ONE_LEVEL))
    def test_speeds_match_the_one_level_solve(self, f, sigma):
        kern = build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                            sigma=sigma)
        grid = Grid(-50.0, 50.0, 2001)
        for slice_fn, ref in zip((min_slice, max_slice),
                                 self.ONE_LEVEL[sigma]):
            tw = solve_traveling_wave(kern, slice_fn(f), grid)
            assert abs(tw.speed - ref) <= 1e-9
            assert tw.iterations >= 2 and tw.coarse_iterations >= 1

    def test_subsampled_kernel(self, kernel):
        coarse = subsample_kernel(kernel)
        assert coarse.spacing == 2.0 * kernel.spacing
        assert coarse.half_points == kernel.half_points // 2
        np.testing.assert_array_equal(coarse.samples, coarse.samples[::-1])
        np.testing.assert_array_equal(coarse.derivative_samples,
                                      -coarse.derivative_samples[::-1])
        assert coarse.quadrature_mass() == pytest.approx(1.0, abs=1e-14)
        # the samples are the kernel's own at the even offsets, rescaled
        np.testing.assert_allclose(
            coarse.samples / coarse.samples[coarse.half_points],
            kernel.samples[kernel.half_points % 2::2]
            / kernel.samples[kernel.half_points], rtol=1e-14)

    def test_even_node_count(self, kernel, f):
        # the coarse grid ends one fine node short of x_max
        grid = Grid(-50.0, 49.95, 2000)
        tw = solve_traveling_wave(kernel, min_slice(f), grid)
        assert tw.x.size == 2000
        assert tw.residual_norm <= 1e-8
        assert 0.0 < tw.speed < 1.0

    def test_fine_polish_takes_two_steps(self, kernel, f, wave_grid,
                                         tw_min):
        # started at the converged wave, the polish still takes two steps
        phi, c, res, steps = waves._newton_polish(
            kernel, min_slice(f), wave_grid, tw_min.phi, tw_min.speed,
            min_steps=2)
        assert steps == 2 and res <= 0.05 * waves.TOL
        assert abs(c - tw_min.speed) <= 1e-12


class TestValidation:
    def test_window_too_small(self, kernel, f):
        with pytest.raises(WaveError):
            solve_traveling_wave(kernel, min_slice(f), Grid(-30.0, 30.0, 1201))

    def test_newton_cap_reached(self, kernel, f, wave_grid, monkeypatch):
        monkeypatch.setattr(waves, "NEWTON_CAP", 1)
        with pytest.raises(WaveError):
            solve_traveling_wave(kernel, min_slice(f), wave_grid)
