"""Stability machinery: Gamma envelopes, perturbation sandwiches, and
asymptotic-rate experiments.

The envelope function Gamma decays like e^{-alpha(x-M1)} far to the right
and equals 1 far to the left; the stability parameters (A, eps0, omega)
are assembled from measured front statistics exactly as the comparison
argument requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .fields import (FieldState, Grid, SolverError, profile_interp,
                     smoothed_step)
from .kernels import Kernel, exponential_moment
from .evolve import SNAPSHOT_EVERY, ApproxFrontRun, evolve
from .fronts import fit_line, locate_level


# ---------------------------------------------------------------------------
# Gamma envelope


@dataclass(frozen=True)
class GammaFunction:
    """C^1 nonincreasing envelope: 1 on the left, e^{-alpha(x-M1)} on the
    right, glued by a quadratic-in-the-exponent blend on [M1-1, M1+1]."""

    alpha: float
    M1: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.M1 <= 0.0:
            raise ValueError("M1 must be positive")

    def __call__(self, x):
        # exact outer branches, blend in between
        x = np.asarray(x, dtype=float)
        right = x >= self.M1 + 1.0
        blend = (x > self.M1 - 1.0) & ~right
        out = np.ones_like(x)
        out[right] = np.exp(-self.alpha * (x[right] - self.M1))
        out[blend] = np.exp(-0.25 * self.alpha
                            * (x[blend] - self.M1 + 1.0) ** 2)
        return out


def gamma_convolution(kernel: Kernel, gamma: GammaFunction,
                      x: np.ndarray) -> np.ndarray:
    """(J*Gamma)(x) by direct stencil quadrature of the analytic Gamma."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    args = x[:, None] - kernel.offsets[None, :]
    vals = gamma(args.ravel()).reshape(args.shape)
    return vals @ (kernel.weights * kernel.samples)


# ---------------------------------------------------------------------------
# stability parameters


@dataclass(frozen=True)
class StabilityParameters:
    alpha: float
    M1: float
    M2: float
    c_min: float
    c_steep: float
    c_fu: float
    beta_tilde: float
    A: float
    eps0: float
    omega: float
    gamma: GammaFunction

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "M1": self.M1, "M2": self.M2,
                "c_min": self.c_min, "C_steep": self.c_steep,
                "C_fu": self.c_fu, "beta_tilde": self.beta_tilde,
                "A": self.A, "eps0": self.eps0, "omega": self.omega}


def assemble_parameters(theta: float, theta_tilde: float, beta_tilde: float,
                        c_fu: float, c_steep: float, c_min: float,
                        alpha: float, M1: float, M2: float) -> StabilityParameters:
    """Combine measured constants by the stability-parameter formulas."""
    if c_steep <= 0.0:
        raise SolverError("degenerate steepness constant")
    A = (2.0 * c_fu + 1.0) / c_steep
    eps0 = min(0.5 * (1.0 - theta_tilde), 0.5 * theta,
               1.0 / (4.0 * A), c_min / (4.0 * A))
    omega = min(beta_tilde, 0.25 * alpha * c_min)
    return StabilityParameters(alpha=alpha, M1=M1, M2=M2, c_min=c_min,
                               c_steep=c_steep, c_fu=c_fu,
                               beta_tilde=beta_tilde, A=A, eps0=eps0,
                               omega=omega, gamma=GammaFunction(alpha, M1))


def measured_c_min(run: ApproxFrontRun) -> float:
    """0.98 times the least interface speed once the run has settled."""
    return 0.98 * float(np.min(run.speeds[run.settled]))


def measure_m1(run: ApproxFrontRun, f) -> float:
    """Smallest half-width such that u >= (1+theta~)/2 left of X-M1 and
    u <= theta/2 right of X+M1 across post-transient snapshots, plus 0.25."""
    hi = 0.5 * (1.0 + f.theta_tilde)
    lo = 0.5 * f.theta
    worst = 0.0
    for snap, x_ref in compress(zip(run.snapshots, run.track), run.settled):
        worst = max(worst,
                    x_ref - locate_level(snap, hi),
                    locate_level(snap, lo) - x_ref)
    return worst + 0.25


def find_m2(kernel: Kernel, gamma: GammaFunction, c_min: float) -> float:
    """Smallest M2 > M1+1 with |e^{alpha(x-M1)} (J*Gamma)(x) - 1| bounded
    by alpha c_min / 4 for all sampled x >= M2, sampled up to 40 beyond
    the stencil reach."""
    alpha = gamma.alpha
    bound = 0.25 * alpha * c_min
    # beyond the stencil reach, the discrepancy is exactly I(alpha) - 1
    flat = abs(exponential_moment(kernel, alpha) - 1.0)
    if flat > bound:
        raise SolverError(
            f"alpha={alpha}: far-field moment defect {flat:.3g} exceeds "
            f"alpha*c_min/4 = {bound:.3g}")
    h = kernel.spacing
    m1 = gamma.M1
    x0 = m1 + 1.0 + h
    xs = np.arange(x0, m1 + 1.0 + kernel.stencil_radius + 40.0, h)
    err = np.abs(np.exp(alpha * (xs - m1)) * gamma_convolution(kernel, gamma, xs)
                 - 1.0)
    suffix = np.maximum.accumulate(err[::-1])[::-1]
    ok = suffix <= bound
    if not np.any(ok):
        raise SolverError(f"alpha={alpha}: no admissible M2 below cap")
    return float(xs[int(np.argmax(ok))])


def measure_c_steep(run: ApproxFrontRun, m2: float) -> float:
    worst = -np.inf
    for snap, x_ref in compress(zip(run.snapshots, run.track), run.settled):
        inside = (snap.x >= x_ref - m2) & (snap.x <= x_ref + m2)
        worst = max(worst, float(np.max(snap.w[inside])))
    if not np.isfinite(worst):
        raise SolverError("no post-transient snapshots")
    return -worst


def select_alpha(run: ApproxFrontRun, kernel: Kernel,
                 f) -> StabilityParameters:
    """Assemble (M1, M2, C_steep, A, eps0, omega) from a front run, scanning
    alpha downward until the M2 construction admits it.

    C_fu is the sampled derivative bound over the state range that
    solutions visit, [0, reactions.STATE_HI].
    """
    c_min = measured_c_min(run)
    c_fu = f.lipschitz_bound()
    beta = f.beta_tilde()
    m1 = measure_m1(run, f)
    last_err = None
    for alpha in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125):
        try:
            m2 = find_m2(kernel, GammaFunction(alpha, m1), c_min)
        except SolverError as err:
            last_err = err
            continue
        return assemble_parameters(f.theta, f.theta_tilde, beta, c_fu,
                                   measure_c_steep(run, m2), c_min, alpha,
                                   m1, m2)
    raise SolverError(f"no admissible alpha in scan: {last_err}")


# ---------------------------------------------------------------------------
# perturbation envelopes


@dataclass(frozen=True)
class PerturbationEnvelope:
    t0: float
    eps: float
    omega: float
    A: float

    def _decay(self, t):
        """e^{-omega (t - t0)}, defined only from t0 on."""
        if np.any(np.asarray(t) < self.t0 - 1e-12):
            raise ValueError("envelope evaluated before t0")
        return np.exp(-self.omega * (np.asarray(t, dtype=float) - self.t0))

    def q(self, t):
        return self.eps * self._decay(t)

    def _drift(self, t):
        """A eps / omega (1 - e^{-omega (t - t0)}), 0 up to t0."""
        return np.maximum(
            self.A * self.eps / self.omega * (1.0 - self._decay(t)), 0.0)

    def zeta_minus(self, t):
        return 0.0 - self._drift(t)  # +0.0, not -0.0, at t0

    def zeta_plus(self, t):
        return self._drift(t)

    def eval(self, t):
        return (float(self.zeta_minus(t)), float(self.zeta_plus(t)),
                float(self.q(t)))


# ---------------------------------------------------------------------------
# experiments: initial data and paired evolution

#: left plateau of the "liminf_above_theta" initial data
PLATEAU = 0.6
#: initial data of the asymptotic experiment
INITIAL_SHAPES = ("mollified_step", "liminf_above_theta")
#: time between paired snapshots of the stability experiments
CADENCE = 2.0


def _pair(ref: FieldState, sol: FieldState) -> FieldState:
    """The lanes of ref, then those of sol, on ref's window."""
    return FieldState(t=ref.t, x=ref.x, u=np.concatenate(
                          [np.atleast_2d(ref.u), np.atleast_2d(sol.u)]),
                      u_left=np.append(ref.u_left, sol.u_left),
                      u_right=np.append(ref.u_right, sol.u_right))


def asymptotic_initial(ref0: FieldState, theta: float,
                       shape: str) -> FieldState:
    """The pair (reference, front-like initial data centred on the
    reference's theta crossing) at ref0.t.

    "mollified_step" is a tanh step from 1 to 0.  "liminf_above_theta"
    scales it to a left plateau PLATEAU above theta; the paired run lifts
    the plateau and its far field toward 1.
    """
    if shape not in INITIAL_SHAPES:
        raise ValueError(f"unknown initial shape {shape!r}")
    base = smoothed_step(Grid(ref0.x[0], ref0.x[-1], ref0.x.size),
                         center=locate_level(ref0, theta), width=2.0)
    if shape == "liminf_above_theta":
        base = base.with_(u=PLATEAU * base.u, u_left=PLATEAU)
    return _pair(ref0, base)


def _paired_snapshots(pair0: FieldState, kernel: Kernel, f, horizon: float,
                      dt: float):
    """Evolve the pair (reference, solution) over the horizon, a whole
    number of steps dt, on one window steered by the reference's theta
    crossing; (solution, reference) at every CADENCE."""
    traj = evolve(pair0, kernel, f, pair0.t + horizon, dt, track_front=True,
                  snapshot_every=CADENCE)
    return [(snap.lane(1), snap.lane(0)) for snap in traj.snapshots]


@dataclass
class StabilityReport:
    """The two-sided sandwich at each paired snapshot time."""

    times: np.ndarray
    envelope_distance: np.ndarray   # positive part outside the shifted band
    q_values: np.ndarray
    zeta_minus: np.ndarray
    zeta_plus: np.ndarray
    violation_count: int
    worst_violation: float
    edge_defect: float   # window-truncation mismatch at the far fields
    # worst violation where both shifted references stay inside the window
    interior_worst_violation: float


@dataclass
class AsymptoticReport:
    """Best-shift distance to the reference and its fitted decay."""

    times: np.ndarray
    sup_distances: np.ndarray
    shift_series: np.ndarray
    zeta_star: float
    fitted_rate: float | None
    r_squared: float | None


def make_perturbed_initial(ref_snap: FieldState, gamma: GammaFunction,
                           x_ref: float, eps: float) -> FieldState:
    u0 = np.clip(ref_snap.u + eps * gamma(ref_snap.x - x_ref), 0.0, 1.0)
    return ref_snap.with_(u=u0, w=None)


def sandwich_margins(pert: FieldState, ref: FieldState, gamma: GammaFunction,
                     x_ref_t: float, z_minus: float, z_plus: float,
                     q: float) -> tuple[float, float, float]:
    """(worst sandwich violation, the same over the window interior,
    distance outside the shifted-front band).

    Violation > 0 means the two-sided bound with the q Gamma cushion fails
    somewhere; the interior takes only nodes x with x - z+ and x - z- both
    inside ref's window, where neither shifted reference reads a far-field
    constant.  The band distance drops the cushion and measures how far the
    solution sits outside [u(t, .-z+), u(t, .-z-)].
    """
    x = pert.x
    ref_fn = profile_interp(ref)
    ref_hi, ref_lo = ref_fn(x - z_plus), ref_fn(x - z_minus)
    upper = ref_hi + q * gamma(x - z_plus - x_ref_t)
    lower = ref_lo - q * gamma(x - z_minus - x_ref_t)
    viol = np.maximum(pert.u - upper, lower - pert.u)
    interior = ((np.minimum(x - z_plus, x - z_minus) >= ref.x[0])
                & (np.maximum(x - z_plus, x - z_minus) <= ref.x[-1]))
    band_hi = float(np.max(pert.u - ref_hi))
    band_lo = float(np.max(ref_lo - pert.u))
    return (float(np.max(viol)), float(np.max(viol[interior])),
            max(band_hi, band_lo, 0.0))


def run_stability_experiment(ref0: FieldState, kernel: Kernel, f,
                             params: StabilityParameters, horizon: float,
                             dt: float) -> StabilityReport:
    """Perturb the reference at t0 = ref0.t by eps0 Gamma, evolve the pair
    and check the two-sided sandwich around the reference's theta
    crossing."""
    eps = params.eps0
    env = PerturbationEnvelope(t0=ref0.t, eps=eps, omega=params.omega,
                               A=params.A)
    x0 = locate_level(ref0, f.theta)
    u0 = make_perturbed_initial(ref0, params.gamma, x0, eps)
    if sandwich_margins(u0, ref0, params.gamma, x0, 0.0, 0.0, eps)[0] > 1e-12:
        raise SolverError("initial data violates the sandwich")

    rows, edge_defect = [], 0.0
    for snap, ref in _paired_snapshots(_pair(ref0, u0), kernel, f, horizon,
                                       dt):
        t = snap.t
        for fld in (snap, ref):
            edge_defect = max(edge_defect,
                              abs(fld.u[-1] - fld.u_right),
                              abs(fld.u[0] - fld.u_left))
        zm, zp, q = env.eval(t)
        viol, inner, dist = sandwich_margins(
            snap, ref, params.gamma, locate_level(ref, f.theta), zm, zp, q)
        rows.append((t, viol, inner, dist, q, zm, zp))
    times, viols, inners, dists, qs, zms, zps = (np.array(c)
                                                 for c in zip(*rows))
    # u <= 1: a violation within a few ulps of 1 is a rounding tie
    count = int(np.sum(viols > 4.0 * np.spacing(1.0)))
    return StabilityReport(times=times, envelope_distance=dists, q_values=qs,
                           zeta_minus=zms, zeta_plus=zps,
                           violation_count=count,
                           worst_violation=float(np.max(viols)),
                           edge_defect=edge_defect,
                           interior_worst_violation=float(np.max(inners)))


# ---------------------------------------------------------------------------
# best shift and asymptotic experiments


def best_shift(field: FieldState, ref: FieldState,
               bracket: tuple | None = None) -> tuple[float, float]:
    """Golden-section minimizer of sup|field - shifted reference|, to a
    bracket of 1e-5."""
    ref_fn = profile_interp(ref)
    x, u = field.x, field.u
    tol = 1e-5

    def dist(z):
        return float(np.max(np.abs(u - ref_fn(x - z))))

    if bracket is None:
        level = 0.5
        center = locate_level(field, level) - locate_level(ref, level)
        bracket = (center - 2.0, center + 2.0)
    a, b = bracket
    if dist(a) < dist(a + tol) and dist(b) < dist(b - tol):
        raise SolverError("bracket does not contain a minimum")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = dist(c), dist(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = dist(d)
    z = 0.5 * (a + b)
    return z, dist(z)


def fit_log_decay(times: np.ndarray, dists: np.ndarray) -> tuple:
    """(rate, amplitude, r2) of C e^{-r t} fitted where d lies in
    [3e-8, 1e-2].

    The band's floor leaves out an interpolation noise plateau below 3e-8;
    a plateau above it stays in the fit and lowers the rate.
    """
    d = np.asarray(dists, dtype=float)
    t = np.asarray(times, dtype=float)
    sel = (d >= 3e-8) & (d <= 1e-2)
    if np.count_nonzero(sel) < 5:
        raise SolverError("too few points inside the decay band")
    slope, intercept, r2 = fit_line(t[sel], np.log(d[sel]))
    return float(-slope), float(math.exp(intercept)), float(r2)


def run_asymptotic_experiment(pair0: FieldState, kernel: Kernel, f,
                              horizon: float, dt: float) -> AsymptoticReport:
    """Evolve the pair (reference, solution) from t0 = pair0.t and fit the
    exponential decay of the best-shift distance; tracking stops once the
    distance falls below 1e-7 after t0 + 10."""
    t0 = pair0.t
    rows, z_prev = [], None
    for snap, ref in _paired_snapshots(pair0, kernel, f, horizon, dt):
        bracket = None if z_prev is None else (z_prev - 1.0, z_prev + 1.0)
        try:
            z, dval = best_shift(snap, ref, bracket=bracket)
        except SolverError:
            # re-center on the level crossings of both profiles
            z, dval = best_shift(snap, ref, bracket=None)
        z_prev = z
        rows.append((snap.t, dval, z))
        if dval < 1e-7 and snap.t > t0 + 10.0:
            break
    times, dists, shifts = (np.array(c) for c in zip(*rows))
    rate, r2 = None, None
    try:
        rate, _, r2 = fit_log_decay(times - t0, dists)
    except SolverError:
        pass
    return AsymptoticReport(times=times, sup_distances=dists,
                            shift_series=shifts, zeta_star=float(shifts[-1]),
                            fitted_rate=rate, r_squared=r2)


# ---------------------------------------------------------------------------
# comparison principle


def comparison_test(u0: FieldState, v0: FieldState, kernel: Kernel, f,
                    t_end: float, dt: float):
    """Evolve ordered pairs as the lanes of one evolve; per pair the least
    margin min(v - u) over snapshots SNAPSHOT_EVERY apart: a float for
    one lane, an array for B lanes (u of shape (B, n), far fields (B,))."""
    if (np.any(u0.u > v0.u) or np.any(u0.u_left > v0.u_left)
            or np.any(u0.u_right > v0.u_right)):
        raise ValueError("initial data not ordered")
    traj = evolve(_pair(u0, v0), kernel, f, t_end, dt,
                  snapshot_every=SNAPSHOT_EVERY)
    b = len(traj.snapshots[0].u) // 2
    margins = np.min([np.min(snap.u[b:] - snap.u[:b], axis=-1)
                      for snap in traj.snapshots], axis=0)
    return margins if u0.u.ndim > 1 else float(margins[0])
