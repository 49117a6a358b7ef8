"""Time integration of u_t = J*u - u + f(t,u) on a truncated moving window.

The stepper is classical RK4 on the semi-discrete system, one path over one
packed array: the row [u_left | u | u_right] and, with the u_x co-state w
(w_t = J'*u - w + f_u(t,u) w), the row [0 | w | 0]; its stages run in work
buffers kept per packed shape.  The window relocates by whole grid steps
when the tracked interface leaves its middle band, with far-field fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldState, Grid, SolverError, profile_interp
from .kernels import (Kernel, _check_compatible, _convolve_samples,
                      _fft_work)
from .fronts import locate_level
from .reactions import STATE_HI, STATE_LO
from .waves import TravelingWave


#: |u(0,0;s) - theta| accepted for the seed shift of an approximating front
SEED_HIT_TOL = 2.5e-7
#: trial runs allowed for the seed shift, and the least dX(0;y)/dy at which
#: the seed, not the window, still places the front
SEED_MAX_RUNS = 10
SEED_MIN_SLOPE = 0.1
#: time after the seed time s from which an approximating front has settled
TRANSIENT = 20.0
#: time between the snapshots of an approximating front
SNAPSHOT_EVERY = 1.0


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

    Each step packs the state once into one array y of rows: row 0 is
    [u_left | u | u_right], and a co-state w adds row 1, [0 | w | 0].  The
    four stages and the RK4 sums run once on all of y.  The nonlocal term
    vanishes on constants, so the far fields follow the reaction ODE v' =
    f(t, v), in the reaction call on all of row 0: a left state above the
    ignition threshold lifts toward 1 with the interior, and f = 0 holds 1
    and 0 fixed.

    The stages write into work buffers, one set per packed shape, and the
    co-state's J'*u reuses the transform of u that J*u made; the RK4 sums
    build up in the returned array, so no state aliases a buffer.
    """

    def __init__(self, kernel: Kernel, f):
        self.kernel = kernel
        self.f = f
        self._wj = kernel.weights * kernel.samples
        self._wdj = kernel.weights * kernel.derivative_samples
        self.dt_max = f.dt_max()
        self._work = {}

    def _buffers(self, shape):
        """(y, stage state, k, temporary, FFT arrays) for this packed shape;
        the ends of row 1 stay 0 in y and k, so in every stage and sum."""
        if shape not in self._work:
            self._work[shape] = (*np.zeros((4,) + shape), _fft_work(
                self._wj, shape[:-2] + (shape[-1] - 2,)))
        return self._work[shape]

    def _pack(self, state: FieldState) -> np.ndarray:
        """The state's rows, written into the work buffer y."""
        u, w = state.u, state.w
        rows = 1 if w is None else 2
        y = self._buffers(u.shape[:-1] + (rows, u.shape[-1] + 2))[0]
        y[..., 0, 0], y[..., 0, 1:-1], y[..., 0, -1] = (state.u_left, u,
                                                        state.u_right)
        if w is not None:
            y[..., 1, 1:-1] = w
        return y

    def _rhs(self, t, y):
        """dy/dt at packed y, in work buffer k."""
        _, _, k, conv, fft = self._buffers(y.shape)
        y0, k0, c0 = y[..., 0, :], k[..., 0, :], conv[..., 0, :]
        u, ul, ur = y0[..., 1:-1], y0[..., 0], y0[..., -1]
        self.f.eval(t, y0, out=k0, work=c0)
        # J*u - u packed like row 0, its ends -0.0 (k + -0.0 is k, bit for
        # bit): one whole-row sum outruns one over each lane's interior
        c0[..., 1:-1] = _convolve_samples(self._wj, u, ul, ur, work=fft)
        c0 -= y0
        c0[..., 0] = c0[..., -1] = -0.0
        k0 += c0
        if y.shape[-2] > 1:
            # f_u w + (J'*u - w), bit for bit the sum in the other order;
            # J'*u from the transform of u that J*u left
            w, kw, cw = y[..., 1, 1:-1], k[..., 1, 1:-1], conv[..., 1, 1:-1]
            np.multiply(self.f.eval_du(t, u, out=kw, work=cw), w, out=kw)
            kw += np.subtract(_convolve_samples(
                self._wdj, u, ul, ur, work=fft, transformed=True), w, out=cw)
        return k

    def step(self, state: FieldState, dt: float) -> FieldState:
        if dt > self.dt_max * (1.0 + 1e-12):
            raise ValueError(f"dt={dt} exceeds dt_max={self.dt_max}")
        _check_compatible(self.kernel, state)
        t, y = state.t, self._pack(state)
        _, ys, _, tmp, _ = self._buffers(y.shape)
        k = self._rhs(t, y)
        acc = k.copy()  # k1 + 2*k2 + 2*k3 + k4, left to right
        for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            np.add(np.multiply(k, c, out=ys), y, out=ys)
            k = self._rhs(t + c, ys)
            acc += np.multiply(k, weight, out=tmp)
        y = np.add(y, np.multiply(acc, dt / 6.0, out=acc), out=acc)
        u, ul, ur = y[..., 0, 1:-1], y[..., 0, 0], y[..., 0, -1]
        # the one range check, the range the cap assumes; a NaN fails it
        if not (u.min() >= STATE_LO and u.max() <= STATE_HI):
            raise SolverError(f"state left [{STATE_LO:g}, {STATE_HI:g}] "
                              f"at t={t + dt}")
        if y.ndim == 2:  # a single lane's far fields come back as floats
            ul, ur = float(ul), float(ur)
        w = y[..., 1, 1:-1] if y.shape[-2] > 1 else None
        return state.with_(t=t + dt, u=u, w=w, u_left=ul, u_right=ur)


def whole_steps(span: float, dt: float, name: str = "snapshot_every",
                unit: str = "dt") -> int:
    """span / dt, which must be a whole number >= 1 to 1e-9 of itself."""
    ratio = span / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(f"{name}={span:g} is not a whole multiple of "
                         f"{unit}={dt:g}")
    return steps


def evolve(state: FieldState, kernel: Kernel, f, t_end: float, dt: float,
           track_front: bool = False,
           snapshot_every: float | None = None) -> Trajectory:
    """Integrate to t_end > state.t in steps of exactly dt, with snapshots
    every snapshot_every (both spans whole numbers of dt); with
    track_front=True the window follows lane 0's theta crossing."""
    if not t_end > state.t:
        raise ValueError(f"t_end={t_end} does not lie after t={state.t}")
    stepper = Stepper(kernel, f)
    n_steps = whole_steps(t_end - state.t, dt, "t_end - t")
    snap_stride = (n_steps if snapshot_every is None
                   else whole_steps(snapshot_every, dt))
    check_stride = max(1, int(round(1.0 / dt)))

    snapshots = [state]
    relocations = []
    t_start = state.t
    for i in range(1, n_steps + 1):
        # stamp each step from the start time: summed steps drift off t_end
        state = stepper.step(state, dt).with_(t=t_start + i * dt)
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
        raise SolverError("front reached the window edge before relocation")
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
    """A front started from a shifted wave profile at a negative seed time.

    Built once per run: the snapshot times, the level crossing of each
    snapshot, its central-difference speeds and the mask of the settled
    (post-transient) snapshots, t >= s + TRANSIENT.
    """

    s: float
    y_s: float
    level: float
    trajectory: Trajectory
    times: np.ndarray = field(init=False)
    track: np.ndarray = field(init=False)
    speeds: np.ndarray = field(init=False)
    settled: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = self.trajectory.times
        self.track = np.array([locate_level(snap, self.level)
                               for snap in self.snapshots])
        self.speeds = np.gradient(self.track, self.times)
        self.settled = self.times >= self.s + TRANSIENT

    @property
    def snapshots(self):
        return self.trajectory.snapshots


def seed_from_profile(grid: Grid, profile_fn, shift: float, t: float,
                      derivative_fn=None) -> FieldState:
    u = np.clip(profile_fn(grid.x - shift), 0.0, 1.0)
    w = None if derivative_fn is None else derivative_fn(grid.x - shift)
    return FieldState(t=t, x=grid.x, u=u, u_left=1.0, u_right=0.0, w=w)


def build_approx_front(kernel: Kernel, f, wave: TravelingWave, grid: Grid,
                       s: float, dt: float, t_end: float = 0.0,
                       snapshot_every: float = SNAPSHOT_EVERY
                       ) -> ApproxFrontRun:
    """Seed the wave profile at time s < 0 so that the front satisfies
    u(0,0;s) = theta, and run it on to t_end >= 0.

    The equation is translation invariant in x: shifting the seed by dy
    moves the terminal theta-crossing X(0; y) by dy.  The seed shift y_s is
    the root of X(0; y): one step of slope 1 from y = 0, then secant steps
    (the slope leaves 1 once the window cuts the seed's tails), until
    |u(0,0;s) - theta| <= SEED_HIT_TOL.  X and u(0,0;s) are read off the
    profile's PCHIP interpolant, where a linear crossing's X(0; y) - y
    would ripple with y's position in its cell.  Only the run from y = 0
    evolves u alone; every later run on [s, 0] is a first leg of the front
    run, with the u_x co-state and the snapshots, and the leg that hits
    goes on to t_end.  t = 0 must be a snapshot time: -s a whole number of
    snapshot_every.
    """
    if not s < 0.0 <= t_end:
        raise ValueError("need seed time s < 0 <= t_end")
    theta, profile_fn = f.theta, wave.profile_fn()
    derivative_fn = wave.derivative_fn()
    y_s, prev, slope = 0.0, None, 1.0
    seed = seed_from_profile(grid, profile_fn, y_s, s)
    for _ in range(SEED_MAX_RUNS):
        leg = evolve(seed, kernel, f, 0.0, dt, snapshot_every=snapshot_every)
        end = leg.snapshots[-1]
        if abs(profile_interp(end)(0.0) - theta) > SEED_HIT_TOL:
            try:
                pos = locate_level(end, theta)
            except SolverError as err:
                raise SolverError(f"seed shift lost the front ({err}); seed "
                                  "time too negative for this window") from err
            if prev is not None:
                slope = (pos - prev[1]) / (y_s - prev[0])
            if slope < SEED_MIN_SLOPE:
                raise SolverError("seed shift no longer moves the front; "
                                  "seed time too negative for this window")
            prev, y_s = (y_s, pos), y_s - pos / slope
        elif end.w is not None:
            break
        seed = seed_from_profile(grid, profile_fn, y_s, s, derivative_fn)
    else:
        raise SolverError(f"seed shift missed theta in {SEED_MAX_RUNS} runs")

    traj = leg
    if t_end > 0.0:
        rest = evolve(end, kernel, f, t_end, dt, snapshot_every=snapshot_every)
        traj = Trajectory(snapshots=leg.snapshots + rest.snapshots[1:])
    return ApproxFrontRun(s=s, y_s=y_s, level=theta, trajectory=traj)
