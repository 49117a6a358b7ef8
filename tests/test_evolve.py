import importlib

import numpy as np
import pytest

from frontlab import cli
from frontlab.evolve import (Stepper, _apply_window_policy,
                             build_approx_front, evolve, seed_from_profile)
from frontlab.fields import FieldState, Grid, SolverError, smoothed_step
from frontlab.fronts import locate_level
from frontlab.kernels import _convolve_samples
from frontlab.reactions import AutonomousSlice, make_ignition
from trajectory_helpers import at_time, linear_crossing

DT = 0.05


def three_branch_step(kernel, f, state, dt):
    """Reference RK4 step written as three branches (the far fields as
    scalar ODEs v' = f(t, v), u only, u with co-state)."""
    wj = kernel.weights * kernel.samples
    wdj = kernel.weights * kernel.derivative_samples

    def rhs_u(t, u, u_left, u_right):
        conv = _convolve_samples(wj, u, u_left, u_right)
        return conv - u + f.eval(t, u)

    def rhs_w(t, u, w, u_left, u_right):
        conv = _convolve_samples(wdj, u, u_left, u_right)
        return conv - w + f.eval_du(t, u) * w

    def fscal(ts, v):
        return float(f.eval(ts, v))

    t, u = state.t, state.u
    ul, ur = state.u_left, state.u_right
    gl1, gr1 = fscal(t, ul), fscal(t, ur)
    gl2 = fscal(t + 0.5 * dt, ul + 0.5 * dt * gl1)
    gr2 = fscal(t + 0.5 * dt, ur + 0.5 * dt * gr1)
    gl3 = fscal(t + 0.5 * dt, ul + 0.5 * dt * gl2)
    gr3 = fscal(t + 0.5 * dt, ur + 0.5 * dt * gr2)
    gl4 = fscal(t + dt, ul + dt * gl3)
    gr4 = fscal(t + dt, ur + dt * gr3)
    sl = (ul, ul + 0.5 * dt * gl1, ul + 0.5 * dt * gl2, ul + dt * gl3)
    sr = (ur, ur + 0.5 * dt * gr1, ur + 0.5 * dt * gr2, ur + dt * gr3)
    ul_new = ul + dt / 6.0 * (gl1 + 2 * gl2 + 2 * gl3 + gl4)
    ur_new = ur + dt / 6.0 * (gr1 + 2 * gr2 + 2 * gr3 + gr4)
    k1 = rhs_u(t, u, sl[0], sr[0])
    k2 = rhs_u(t + 0.5 * dt, u + 0.5 * dt * k1, sl[1], sr[1])
    k3 = rhs_u(t + 0.5 * dt, u + 0.5 * dt * k2, sl[2], sr[2])
    k4 = rhs_u(t + dt, u + dt * k3, sl[3], sr[3])
    u_new = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    w_new = None
    if state.w is not None:
        w = state.w
        l1 = rhs_w(t, u, w, sl[0], sr[0])
        l2 = rhs_w(t + 0.5 * dt, u + 0.5 * dt * k1, w + 0.5 * dt * l1,
                   sl[1], sr[1])
        l3 = rhs_w(t + 0.5 * dt, u + 0.5 * dt * k2, w + 0.5 * dt * l2,
                   sl[2], sr[2])
        l4 = rhs_w(t + dt, u + dt * k3, w + dt * l3, sl[3], sr[3])
        w_new = w + dt / 6.0 * (l1 + 2 * l2 + 2 * l3 + l4)
    return state.with_(t=t + dt, u=u_new, w=w_new,
                       u_left=ul_new, u_right=ur_new)


def _reference_states():
    grid = Grid(-20.0, 20.0, 801)
    base = smoothed_step(grid)
    plateau = base.with_(u=0.6 * base.u, u_left=0.6)
    return {
        "u_only": base,
        "u_and_w": base.with_(w=np.gradient(base.u, base.x)),
        "far_fields": plateau,
        "far_fields_and_w": plateau.with_(w=np.gradient(plateau.u,
                                                        plateau.x)),
    }


def scalar_rk4(f, t, v, dt):
    """One classical RK4 step of the scalar ODE v' = f(t, v)."""
    def g(ts, vs):
        return float(f.eval(ts, vs))
    k1 = g(t, v)
    k2 = g(t + 0.5 * dt, v + 0.5 * dt * k1)
    k3 = g(t + 0.5 * dt, v + 0.5 * dt * k2)
    k4 = g(t + dt, v + dt * k3)
    return v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestStepper:
    def test_zero_and_one_are_equilibria(self, kernel, f):
        grid = Grid(-20.0, 20.0, 801)
        for value in (0.0, 1.0):
            state = FieldState(t=0.0, x=grid.x, u=np.full(grid.n, value),
                               u_left=value, u_right=value)
            out = Stepper(kernel, f).step(state, DT)
            assert np.max(np.abs(out.u - value)) < 1e-14

    def test_subthreshold_constant_decays_nowhere(self, kernel, f):
        # below theta the reaction vanishes and J*u - u = 0 for constants
        grid = Grid(-20.0, 20.0, 801)
        state = FieldState(t=0.0, x=grid.x, u=np.full(grid.n, 0.2),
                           u_left=0.2, u_right=0.2)
        out = Stepper(kernel, f).step(state, DT)
        assert np.max(np.abs(out.u - 0.2)) < 1e-14

    def test_frozen_slice_steps_like_constant_modulation(self, kernel, f):
        # a slice a*f0 is an ordinary nonlinearity for the stepper: bit for
        # bit the reaction with a(t) = a
        state = smoothed_step(Grid(-20.0, 20.0, 801))
        frozen = evolve(state, kernel, AutonomousSlice(1.5, f), 2.0, DT)
        flat = evolve(state, kernel, make_ignition(a_amp=0.0), 2.0, DT)
        assert np.array_equal(frozen.snapshots[-1].u, flat.snapshots[-1].u)

    def test_dt_cap_enforced(self, kernel, f):
        # the cap is 0.7355 at the defaults; one step of 1.0 exceeds it
        grid = Grid(-20.0, 20.0, 801)
        state = smoothed_step(grid)
        with pytest.raises(ValueError, match="exceeds dt_max"):
            evolve(state, kernel, f, 1.0, 1.0)

    @pytest.mark.parametrize("value", [10.0, np.nan, 1.2, -0.1])
    def test_state_outside_range_raises(self, kernel, f, value):
        # the stepper is the one place that checks u in the state range
        # [-0.05, 1.1] that the step cap assumes; a NaN fails it too
        state = smoothed_step(Grid(-20.0, 20.0, 801))
        u = state.u.copy()
        u[400] = value
        with pytest.raises(SolverError, match=r"left \[-0\.05, 1\.1\]"):
            Stepper(kernel, f).step(state.with_(u=u), DT)

    def test_snapshot_every_off_the_steps_rejected(self, kernel, f):
        # 1.0 / 0.03 is not whole: rounding would space snapshots 0.99 apart
        state = smoothed_step(Grid(-20.0, 20.0, 801))
        with pytest.raises(ValueError, match="not a whole multiple of dt"):
            evolve(state, kernel, f, 3.0, 0.03, snapshot_every=1.0)
        times = evolve(state, kernel, f, 3.0, 0.03, snapshot_every=0.99).times
        assert times == pytest.approx([0.0, 0.99, 1.98, 2.97, 3.0])

    def test_span_off_the_steps_rejected(self, kernel, f):
        # 1.0 / 0.3 is not whole: rounding would run 3 steps of 1/3
        state = smoothed_step(Grid(-20.0, 20.0, 801))
        with pytest.raises(ValueError, match="not a whole multiple of dt"):
            evolve(state, kernel, f, 1.0, 0.3)

    def test_rk4_time_accuracy(self, kernel, f):
        # halving dt should shrink the defect by ~16 (4th order)
        grid = Grid(-20.0, 20.0, 801)
        state = smoothed_step(grid)
        fine = evolve(state, kernel, f, 2.0, 0.00625).snapshots[-1].u
        c1 = np.max(np.abs(evolve(state, kernel, f, 2.0, 0.05)
                           .snapshots[-1].u - fine))
        c2 = np.max(np.abs(evolve(state, kernel, f, 2.0, 0.025)
                           .snapshots[-1].u - fine))
        assert c1 / c2 > 10.0

    def test_far_field_evolution(self, kernel, f):
        # a plateau above theta, far field included, must grow toward 1
        grid = Grid(-20.0, 20.0, 801)
        base = smoothed_step(grid)
        state = base.with_(u=0.6 * base.u, u_left=0.6)
        traj = evolve(state, kernel, f, 30.0, DT)
        end = traj.snapshots[-1]
        assert end.u_left > 0.95
        assert end.u_right == 0.0
        assert np.interp(-20.0, end.x, end.u) == pytest.approx(end.u_left,
                                                               abs=1e-3)


class TestSingleRK4Path:
    @pytest.mark.parametrize("case", ["u_only", "u_and_w", "far_fields",
                                      "far_fields_and_w"])
    def test_matches_three_branch_reference(self, kernel, f, case):
        state = _reference_states()[case]
        stepper = Stepper(kernel, f)
        ref = state
        for _ in range(20):
            state = stepper.step(state, DT)
            ref = three_branch_step(kernel, f, ref, DT)
            assert np.array_equal(state.u, ref.u)
            assert (state.w is None) == (ref.w is None)
            if ref.w is not None:
                assert np.array_equal(state.w, ref.w)
            assert (state.u_left, state.u_right) == (ref.u_left,
                                                     ref.u_right)

    @pytest.mark.parametrize("costate", [False, True])
    def test_lanes_match_three_branch_reference(self, kernel, f, costate):
        # two lanes with far fields [0.6, 1.0]: each lane stepped on its
        # own by the reference, bit for bit
        base = _reference_states()["far_fields"]
        singles = (base, smoothed_step(Grid(-20.0, 20.0, 801), center=3.0))
        if costate:
            singles = tuple(s.with_(w=np.gradient(s.u, s.x))
                            for s in singles)
        state = FieldState(
            t=0.0, x=base.x, u=np.stack([s.u for s in singles]),
            u_left=np.array([0.6, 1.0]), u_right=np.array([0.0, 0.0]),
            w=np.stack([s.w for s in singles]) if costate else None)
        stepper = Stepper(kernel, f)
        for _ in range(20):
            state = stepper.step(state, DT)
            singles = tuple(three_branch_step(kernel, f, s, DT)
                            for s in singles)
            assert type(state.u_left) is np.ndarray
            assert state.u_left.shape == state.u_right.shape == (2,)
            for i, ref in enumerate(singles):
                lane = state.lane(i)
                assert np.array_equal(lane.u, ref.u)
                if costate:
                    assert np.array_equal(lane.w, ref.w)
                assert (lane.u_left, lane.u_right) == (ref.u_left,
                                                       ref.u_right)
        assert state.u_left[0] > 0.6   # the reaction lifts lane 0's field

    def test_costate_reuses_the_transform_bit_for_bit(self, kernel, f,
                                                       monkeypatch):
        # J'*u from the transform that J*u left, against two fresh
        # convolutions per co-state stage
        state = _reference_states()["far_fields_and_w"]
        reused = Stepper(kernel, f).step(state, DT)
        module = importlib.import_module("frontlab.evolve")
        monkeypatch.setattr(
            module, "_convolve_samples",
            lambda weighted, u, ul, ur, work=None, transformed=False:
            _convolve_samples(weighted, u, ul, ur))
        fresh = Stepper(kernel, f).step(state, DT)
        assert np.array_equal(reused.u, fresh.u)
        assert np.array_equal(reused.w, fresh.w)

    def test_single_lane_far_fields_are_floats(self, kernel, f):
        state = Stepper(kernel, f).step(_reference_states()["far_fields"],
                                        DT)
        assert type(state.u_left) is float and type(state.u_right) is float

    def test_far_fields_drive_u_with_or_without_costate(self, kernel, f):
        # the co-state must not change how u and the far fields evolve
        state = _reference_states()["far_fields"]
        plain = evolve(state, kernel, f, 5.0, DT)
        with_w = evolve(state.with_(w=np.gradient(state.u, state.x)),
                        kernel, f, 5.0, DT)
        a, b = plain.snapshots[-1], with_w.snapshots[-1]
        assert a.u_left > 0.6
        assert np.array_equal(a.u, b.u)
        assert (a.u_left, a.u_right) == (b.u_left, b.u_right)

    @pytest.mark.parametrize("costate", [False, True])
    def test_constant_state_follows_scalar_rk4(self, kernel, f, costate):
        # J*v - v = 0 on a constant, so u = v and both far fields follow
        # the scalar RK4 of v' = f(t, v) to round-off
        grid = Grid(-20.0, 20.0, 801)
        state = FieldState(t=0.0, x=grid.x, u=np.full(grid.n, 0.6),
                           u_left=0.6, u_right=0.6)
        if costate:
            state = state.with_(w=np.zeros_like(state.u))
        stepper, v = Stepper(kernel, f), 0.6
        for _ in range(40):
            state, v = stepper.step(state, DT), scalar_rk4(f, state.t, v, DT)
            assert np.max(np.abs(state.u - v)) <= 1e-14
            assert (state.u_left, state.u_right) == (v, v)
            if costate:
                assert np.max(np.abs(state.w)) <= 1e-14
        assert v > 0.62   # the reaction lifts the constant above 0.6

    def test_grid_spacing_must_match_kernel(self, kernel, f):
        coarse = smoothed_step(Grid(-20.0, 20.0, 401))   # h = 0.1
        with pytest.raises(ValueError):
            evolve(coarse, kernel, f, 1.0, DT)


class TestWorkBuffers:
    @pytest.mark.parametrize("lanes", ["one_lane", "two_lanes", "costate"])
    def test_returned_state_survives_later_steps(self, kernel, f, lanes):
        # the stepper reuses its work buffers; no state it returned may
        # change when it steps on
        states = _reference_states()
        state = states["far_fields_and_w" if lanes == "costate"
                       else "far_fields"]
        if lanes == "two_lanes":
            other = states["u_only"]
            state = FieldState(t=0.0, x=state.x,
                               u=np.stack([state.u, other.u]),
                               u_left=np.array([0.6, 1.0]),
                               u_right=np.array([0.0, 0.0]))
        stepper = Stepper(kernel, f)
        for _ in range(3):
            state = stepper.step(state, DT)
        kept = state
        frozen = [np.copy(a) for a in (kept.u, kept.w, kept.u_left,
                                       kept.u_right) if a is not None]
        for _ in range(5):
            state = stepper.step(state, DT)
        after = [a for a in (kept.u, kept.w, kept.u_left, kept.u_right)
                 if a is not None]
        assert len(after) == (4 if lanes == "costate" else 3)
        for old, new in zip(frozen, after, strict=True):
            assert np.array_equal(old, new)
        assert not np.array_equal(state.u, kept.u)


class TestLanes:
    @staticmethod
    def _lanes(grid):
        a = smoothed_step(grid, center=-2.0, width=1.0)
        b = smoothed_step(grid, center=3.0, width=2.0).with_(u_left=0.9)
        pair = FieldState(t=0.0, x=grid.x, u=np.stack([a.u, b.u]),
                          u_left=np.array([1.0, 0.9]),
                          u_right=np.array([0.0, 0.0]))
        return (a, b), pair

    @pytest.mark.parametrize("costate", [False, True])
    def test_two_lanes_match_single_lane_evolves(self, kernel, f, costate):
        singles, pair = self._lanes(Grid(-20.0, 20.0, 801))
        if costate:
            singles = tuple(s.with_(w=np.gradient(s.u, s.x))
                            for s in singles)
            pair = pair.with_(w=np.stack([s.w for s in singles]))
        lanes = evolve(pair, kernel, f, 3.0, DT, snapshot_every=1.0)
        assert len(lanes.snapshots) == 4
        for i, single in enumerate(singles):
            ref = evolve(single, kernel, f, 3.0, DT, snapshot_every=1.0)
            for snap, ref_snap in zip(lanes.snapshots, ref.snapshots,
                                      strict=True):
                assert snap.t == ref_snap.t
                assert np.array_equal(snap.u[i], ref_snap.u)
                assert (snap.u_left[i], snap.u_right[i]) == (
                    ref_snap.u_left, ref_snap.u_right)
                if costate:
                    assert snap.w is not None and ref_snap.w is not None
                    assert np.array_equal(snap.w[i], ref_snap.w)
        # the 0.9 far field lifts toward 1
        assert lanes.snapshots[-1].u_left[1] > 0.9

    def test_window_policy_steers_by_lane_zero(self, kernel, f, tw_min):
        grid = Grid(-30.0, 30.0, 1201)
        fn = tw_min.profile_fn()
        # the lead seeded far to the right so the policy must recenter
        lead = FieldState(t=0.0, x=grid.x, u=fn(grid.x - 15.0))
        pair = FieldState(t=0.0, x=grid.x,
                          u=np.stack([lead.u, fn(grid.x - 10.0)]),
                          u_left=np.array([1.0, 1.0]),
                          u_right=np.array([0.0, 0.0]))
        lanes = evolve(pair, kernel, f, 5.0, DT, track_front=True,
                       snapshot_every=1.0)
        single = evolve(lead, kernel, f, 5.0, DT, track_front=True,
                        snapshot_every=1.0)
        assert len(single.relocations) >= 1
        assert lanes.relocations == single.relocations
        for snap, ref in zip(lanes.snapshots, single.snapshots, strict=True):
            assert np.array_equal(snap.x, ref.x)
            assert np.array_equal(snap.u[0], ref.u)


class TestMonotoneAndRange:
    def test_monotone_preserved(self, kernel, f):
        grid = Grid(-30.0, 30.0, 1201)
        traj = evolve(smoothed_step(grid), kernel, f, 10.0, DT,
                      snapshot_every=1.0)
        for snap in traj.snapshots:
            assert snap.is_monotone(tol=1e-10)
            assert np.all(snap.u >= -1e-10) and np.all(snap.u <= 1.0 + 1e-10)


class TestWindowPolicy:
    def test_relocation_preserves_profile(self, kernel, f, tw_min):
        grid = Grid(-30.0, 30.0, 1201)
        fn, dfn = tw_min.profile_fn(), tw_min.derivative_fn()
        # seed far to the right so the policy must recenter
        state = FieldState(t=0.0, x=grid.x, u=fn(grid.x - 15.0))
        traj = evolve(state, kernel, f, 5.0, DT, track_front=True,
                      snapshot_every=1.0)
        assert len(traj.relocations) >= 1
        end = traj.snapshots[-1]
        # window moved rightward in whole-h multiples
        shift = end.x[0] - grid.x[0]
        assert shift > 0
        assert shift / grid.h == pytest.approx(round(shift / grid.h),
                                               abs=1e-9)
        pos = locate_level(end, 0.3)
        center = 0.5 * (end.x[0] + end.x[-1])
        assert abs(pos - center) <= (end.x[-1] - end.x[0]) / 6.0

    def test_edge_hit_raises(self, tw_min):
        # level value already outside the window: relocation came too late
        grid = Grid(-10.0, 10.0, 401)
        fn = tw_min.profile_fn()
        state = FieldState(t=0.0, x=grid.x, u=fn(grid.x - 11.0))
        with pytest.raises(SolverError):
            _apply_window_policy(state, 0.3)


class TestApproxFront:
    def test_seed_time_hits_level(self, front_run, f):
        end = at_time(front_run.trajectory, 0.0)
        u0 = float(np.interp(0.0, end.x, end.u))
        assert abs(u0 - f.theta) <= 1e-6

    def test_far_fields_stay_exact(self, front_run):
        # f is exactly 0 at 1 and at 0, so the far fields never move
        assert all((snap.u_left, snap.u_right) == (1.0, 0.0)
                   for snap in front_run.snapshots)

    def test_snapshots_carry_derivative(self, front_run):
        assert all(s.w is not None for s in front_run.snapshots)

    def test_derivative_tracks_profile(self, front_run):
        snap = at_time(front_run.trajectory, 20.0)
        fd = np.gradient(snap.u, snap.x)
        core = (snap.u > 1e-3) & (snap.u < 1.0 - 1e-3)
        assert np.max(np.abs(fd[core] - snap.w[core])) < 2e-3

    def test_interface_moves_right(self, front_run):
        ts, xs = front_run.times, front_run.track
        sel = ts >= -25.0
        assert np.all(np.diff(xs[sel]) > 0.0)

    def test_positive_seed_time_rejected(self, kernel, f, tw_min):
        with pytest.raises(ValueError, match="seed time s < 0"):
            build_approx_front(kernel, f, tw_min, Grid(-50, 50, 2001),
                               s=1.0, dt=DT)

    def test_seed_time_stability(self, kernel, f, tw_min, front_run):
        """A deeper seed time gives the same front near the interface at
        t = 0 (the s -> -infinity limit is practically attained)."""
        grid = Grid(-50.0, 50.0, 2001)
        run40 = build_approx_front(kernel, f, tw_min, grid, s=-40.0, dt=DT)
        a = at_time(front_run.trajectory, 0.0)
        b = at_time(run40.trajectory, 0.0)
        near = np.abs(a.x) <= 20.0
        diff = np.max(np.abs(a.u[near] - np.interp(a.x[near], b.x, b.u)))
        assert diff < 1e-2

    def test_seed_shift_by_translation(self, kernel, f, tw_min,
                                       monkeypatch):
        """Shifting the seed by the terminal crossing hits theta within
        2.5e-7 in at most four runs on [s, 0]: the u-only trial, then
        co-state runs, the last of which is the front run."""
        module = importlib.import_module("frontlab.evolve")
        real_evolve = module.evolve
        calls = []

        def counting_evolve(*args, **kwargs):
            calls.append(1)
            return real_evolve(*args, **kwargs)

        monkeypatch.setattr(module, "evolve", counting_evolve)
        run = build_approx_front(kernel, f, tw_min, Grid(-12.5, 12.5, 501),
                                 s=-5.0, dt=DT)
        end = at_time(run.trajectory, 0.0)
        assert abs(float(np.interp(0.0, end.x, end.u)) - f.theta) <= 2.5e-7
        assert len(calls) <= 4

    @pytest.mark.parametrize("crossing, legs", [
        ("cubic", [False, True, True]),
        # sabotage: the linear crossing ripples with the seed's position in
        # its cell, so the slope-1 step misses and a second leg is needed
        ("linear", [False, True, True, True])])
    def test_default_front_build(self, tw_min, monkeypatch, crossing, legs):
        """One u-only trial of 150 steps, then the co-state run whose first
        leg, [s, 0], hits theta and goes on to t_end."""
        module = importlib.import_module("frontlab.evolve")
        real_evolve, real_step = module.evolve, Stepper.step
        costate, u_only_steps = [], []

        def counting_evolve(state, *args, **kwargs):
            costate.append(state.w is not None)
            return real_evolve(state, *args, **kwargs)

        def counting_step(self, state, dt):
            if state.w is None:
                u_only_steps.append(1)
            return real_step(self, state, dt)

        monkeypatch.setattr(module, "evolve", counting_evolve)
        monkeypatch.setattr(Stepper, "step", counting_step)
        if crossing == "linear":
            monkeypatch.setattr(module, "locate_level", linear_crossing)
        cfg = cli.load_config(None)
        kern, f, grid = cli.build_problem(cfg)
        tc = cfg["time"]
        run = build_approx_front(kern, f, tw_min, grid, tc["s"], tc["dt"],
                                 tc["t_end"])
        assert costate == legs
        assert len(u_only_steps) == 150
        end = at_time(run.trajectory, 0.0)
        assert abs(float(np.interp(0.0, end.x, end.u)) - f.theta) <= 2.5e-7
        assert np.array_equal(run.times, np.arange(-30.0, 61.0))

    def test_cubic_crossing_translates_with_the_seed(self, tw_min):
        """X(0; y) - y over sub-grid seed shifts y at the defaults: the
        PCHIP crossing holds it to 1e-6, where the linear one ripples by
        about 7e-5."""
        cfg = cli.load_config(None)
        kern, f, grid = cli.build_problem(cfg)
        fn = tw_min.profile_fn()
        cubic, linear = [], []
        for y in np.arange(8) * grid.h / 8:
            seed = seed_from_profile(grid, fn, y, -30.0)
            end = evolve(seed, kern, f, 0.0, 0.2).snapshots[-1]
            cubic.append(locate_level(end, f.theta) - y)
            linear.append(linear_crossing(end, f.theta) - y)
        assert np.ptp(cubic) <= 1e-6
        assert np.ptp(linear) >= 1e-5

    def test_seed_shift_in_tight_window(self, kernel, f, tw_min):
        """The window cuts the seed's tails, so a seed shift of dy moves
        the crossing by about 0.6 dy; the secant steps still hit theta.
        A bisection on the terminal value gives y_s = -4.7958607."""
        run = build_approx_front(kernel, f, tw_min, Grid(-7.5, 7.5, 301),
                                 s=-30.0, dt=DT)
        end = at_time(run.trajectory, 0.0)
        assert abs(float(np.interp(0.0, end.x, end.u)) - f.theta) <= 2.5e-7
        assert run.y_s == pytest.approx(-4.7958607, abs=1e-6)

    def test_seed_time_too_deep_for_window(self, kernel, f, tw_min):
        # the window is barely wider than the front: by t = 0 the window,
        # not the seed, places the front, and no seed shift reaches theta
        with pytest.raises(SolverError):
            build_approx_front(kernel, f, tw_min, Grid(-5.0, 5.0, 201),
                               s=-30.0, dt=DT)


class TestTrajectory:
    def test_at_time_tolerance(self, front_run):
        snap = at_time(front_run.trajectory, 10.0)
        assert snap.t == pytest.approx(10.0, abs=1e-9)
        with pytest.raises(KeyError):
            at_time(front_run.trajectory, 10.5)

    def test_snapshot_times_are_exact(self, front_run):
        # step i is stamped s + i*dt: no summed-step drift, t_end is hit
        assert np.array_equal(front_run.trajectory.times,
                              np.arange(-30.0, 61.0))

    def test_track_is_each_snapshots_crossing(self, front_run, f):
        assert np.array_equal(front_run.times, front_run.trajectory.times)
        assert np.array_equal(front_run.track, [
            locate_level(snap, f.theta) for snap in front_run.snapshots])
        assert np.array_equal(front_run.speeds,
                              np.gradient(front_run.track, front_run.times))

    def test_settled_starts_after_the_transient(self, front_run):
        # seeded at s = -30: settled from t = -10 on
        assert np.array_equal(front_run.settled, front_run.times >= -10.0)
