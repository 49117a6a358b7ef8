"""Time integration of u_t = J*u - u + f(t,u) on a truncated moving window.

The stepper is classical 4-stage Runge-Kutta on the semi-discrete system,
one path over the state (u, w, u_left, u_right); the window relocates by
whole grid steps when the tracked interface leaves its middle band, with
far-field fill.  The spatial derivative co-evolves through the
differentiated equation w_t = J'*u - w + f_u(t,u) w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldState, Grid
from .kernels import Kernel, _check_compatible, _convolve_samples
from .fronts import FrontError, locate_level
from .reactions import STATE_HI, STATE_LO
from .waves import TravelingWave


class EvolveError(RuntimeError):
    pass


class EvolveInputError(EvolveError, ValueError):
    """An argument outside the integrator's domain."""


#: |u(0,0;s) - theta| accepted for the seed shift of an approximating front
SEED_HIT_TOL = 2.5e-7
#: trial runs allowed for the seed shift, and the least dX(0;y)/dy at which
#: the seed, not the window, still places the front
SEED_MAX_RUNS = 10
SEED_MIN_SLOPE = 0.1
#: time after the seed time s from which an approximating front has settled
TRANSIENT = 20.0


@dataclass(frozen=True)
class Relocation:
    t: float
    shift: float  # length units, whole multiple of h


@dataclass
class Trajectory:
    snapshots: list
    relocations: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def _shift_lanes(a: np.ndarray, m: int, fill) -> np.ndarray:
    out = np.empty_like(a)
    if m > 0:
        out[..., :-m], out[..., -m:] = a[..., m:], fill
    else:
        out[..., -m:], out[..., :-m] = a[..., :m], fill
    return out


def _shift_window(state: FieldState, m: int) -> FieldState:
    """Relocate the window by m grid steps (m > 0 moves it rightward); each
    lane moves by m and fills from its own far field."""
    if m == 0:
        return state
    far = np.asarray(state.u_right if m > 0 else state.u_left)[..., None]
    w = None if state.w is None else _shift_lanes(state.w, m, 0.0)
    return state.with_(x=state.x + m * state.h,
                       u=_shift_lanes(state.u, m, far), w=w)


class Stepper:
    """RK4 stepper bound to one kernel and one nonlinearity.

    One RK4 advances the state (u, w, u_left, u_right); the co-state w is
    optional.  The nonlocal term vanishes on constants, so the far fields
    follow the reaction ODE v' = f(t, v): a left state above the ignition
    threshold lifts toward 1 with the interior, and f = 0 holds 1 and 0
    fixed.
    """

    def __init__(self, kernel: Kernel, f):
        self.kernel = kernel
        self.f = f
        self._wj = kernel.weights * kernel.samples
        self._wdj = kernel.weights * kernel.derivative_samples
        self.dt_max = f.dt_max()

    def _rhs(self, t, y):
        u, w, ul, ur = y
        # one reaction call on the lane-wise [u_left, u, u_right]
        r = self.f.eval(t, np.concatenate(
            (np.asarray(ul)[..., None], u, np.asarray(ur)[..., None]), -1))
        ku = _convolve_samples(self._wj, u, ul, ur) - u + r[..., 1:-1]
        kw = None
        if w is not None:
            kw = (_convolve_samples(self._wdj, u, ul, ur) - w
                  + self.f.eval_du(t, u) * w)
        return ku, kw, r[..., 0], r[..., -1]

    def step(self, state: FieldState, dt: float) -> FieldState:
        if dt > self.dt_max * (1.0 + 1e-12):
            raise EvolveInputError(f"dt={dt} exceeds dt_max={self.dt_max}")
        _check_compatible(self.kernel, state)
        t = state.t
        y = (state.u, state.w, state.u_left, state.u_right)

        def combine(ks, weight):
            # y + weight * ks component-wise; an absent co-state stays None
            return tuple(None if yi is None else yi + weight * ki
                         for yi, ki in zip(y, ks))

        k1 = self._rhs(t, y)
        k2 = self._rhs(t + 0.5 * dt, combine(k1, 0.5 * dt))
        k3 = self._rhs(t + 0.5 * dt, combine(k2, 0.5 * dt))
        k4 = self._rhs(t + dt, combine(k3, dt))
        incr = tuple(None if a is None else a + 2 * b + 2 * c + d
                     for a, b, c, d in zip(k1, k2, k3, k4))
        u_new, w_new, ul_new, ur_new = combine(incr, dt / 6.0)
        # the one range check, the range the cap assumes; a NaN fails it
        if not (u_new.min() >= STATE_LO and u_new.max() <= STATE_HI):
            raise EvolveError(f"state left [{STATE_LO:g}, {STATE_HI:g}] "
                              f"at t={t + dt}")
        return state.with_(t=t + dt, u=u_new, w=w_new,
                           u_left=ul_new, u_right=ur_new)


def evolve(state: FieldState, kernel: Kernel, f, t_end: float, dt: float,
           track_front: bool = False,
           snapshot_every: float | None = None) -> Trajectory:
    """Integrate to t_end > state.t with snapshots every snapshot_every.

    With track_front=True the window follows lane 0's theta crossing.
    """
    if not t_end > state.t:
        raise EvolveInputError(f"t_end={t_end} does not lie after "
                               f"t={state.t}")
    stepper = Stepper(kernel, f)
    n_steps = max(1, int(round((t_end - state.t) / dt)))
    dt_eff = (t_end - state.t) / n_steps
    snap_stride = n_steps
    if snapshot_every is not None:
        ratio = snapshot_every / dt_eff
        snap_stride = int(round(ratio))
        if snap_stride < 1 or abs(ratio - snap_stride) > 1e-9 * snap_stride:
            raise EvolveInputError(f"snapshot_every={snapshot_every} is not "
                                   f"a whole number of steps of {dt_eff:g}")
    check_stride = max(1, int(round(1.0 / dt_eff)))

    snapshots = [state]
    relocations = []
    t_start = state.t
    for i in range(1, n_steps + 1):
        # stamp each step from the start time: summed steps drift off t_end
        state = stepper.step(state, dt_eff).with_(t=t_start + i * dt_eff)
        if track_front and (i % check_stride == 0 or i == n_steps):
            state, moved = _apply_window_policy(state, f.theta)
            if moved:
                relocations.append(Relocation(t=state.t,
                                              shift=moved * state.h))
        if i % snap_stride == 0 or i == n_steps:
            snapshots.append(state)
    return Trajectory(snapshots=snapshots, relocations=relocations)


def _apply_window_policy(state: FieldState, lam: float):
    if np.any(state.u[..., 0] < lam) or np.any(state.u[..., -1] > lam):
        raise EvolveError("front reached the window edge before relocation")
    lead = state.lane(0) if state.u.ndim > 1 else state
    pos = locate_level(lead, lam, strict=False)
    center = 0.5 * (state.x[0] + state.x[-1])
    half = 0.5 * (state.x[-1] - state.x[0])
    if abs(pos - center) <= half / 3.0:
        return state, 0
    m = int(round((pos - center) / state.h))
    return _shift_window(state, m), m


# ---------------------------------------------------------------------------
# approximating fronts


@dataclass
class ApproxFrontRun:
    """A front started from a shifted wave profile at a negative seed time."""

    s: float
    y_s: float
    level: float
    trajectory: Trajectory

    @property
    def snapshots(self):
        return self.trajectory.snapshots

    @property
    def settled_from(self) -> float:
        """Start of the post-transient part of the run."""
        return self.s + TRANSIENT

    def interface_track(self) -> tuple[np.ndarray, np.ndarray]:
        ts = self.trajectory.times
        xs = np.array([locate_level(snap, self.level)
                       for snap in self.snapshots])
        return ts, xs

    def interface_speeds(self) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference speeds of the level track."""
        ts, xs = self.interface_track()
        v = np.gradient(xs, ts)
        return ts, v


def seed_from_profile(grid: Grid, profile_fn, shift: float, t: float,
                      derivative_fn=None) -> FieldState:
    u = np.clip(profile_fn(grid.x - shift), 0.0, 1.0)
    w = None if derivative_fn is None else derivative_fn(grid.x - shift)
    return FieldState(t=t, x=grid.x, u=u, u_left=1.0, u_right=0.0, w=w)


def build_approx_front(kernel: Kernel, f, wave: TravelingWave, grid: Grid,
                       s: float, dt: float, t_end: float = 0.0,
                       snapshot_every: float = 1.0) -> ApproxFrontRun:
    """Seed the wave profile at time s < 0 so that the front satisfies
    u(0,0;s) = theta.

    The equation is translation invariant in x: shifting the seed by dy
    moves the terminal theta-crossing X(0; y) by dy.  The seed shift y_s is
    the root of X(0; y): one step of slope 1 from y = 0, then secant steps
    (the slope leaves 1 once the window cuts the seed's tails), until
    |u(0,0;s) - theta| <= SEED_HIT_TOL.  The trial runs evolve u alone;
    the returned run carries the u_x co-state.
    """
    if s >= 0:
        raise EvolveInputError("seed time must be negative")
    theta, profile_fn = f.theta, wave.profile_fn()
    y_s, prev, slope = 0.0, None, 1.0
    for _ in range(SEED_MAX_RUNS):
        state = seed_from_profile(grid, profile_fn, y_s, s)
        end = evolve(state, kernel, f, 0.0, dt).snapshots[-1]
        if abs(float(np.interp(0.0, end.x, end.u)) - theta) <= SEED_HIT_TOL:
            break
        try:
            pos = locate_level(end, theta)
        except FrontError as err:
            raise EvolveError(f"seed shift lost the front ({err}); seed "
                              "time too negative for this window") from err
        if prev is not None:
            slope = (pos - prev[1]) / (y_s - prev[0])
        if slope < SEED_MIN_SLOPE:
            raise EvolveError("seed shift no longer moves the front; seed "
                              "time too negative for this window")
        prev, y_s = (y_s, pos), y_s - pos / slope
    else:
        raise EvolveError(f"seed shift missed theta in {SEED_MAX_RUNS} runs")

    seed = seed_from_profile(grid, profile_fn, y_s, s, wave.derivative_fn())
    traj = evolve(seed, kernel, f, t_end, dt, snapshot_every=snapshot_every)
    return ApproxFrontRun(s=s, y_s=y_s, level=theta, trajectory=traj)

