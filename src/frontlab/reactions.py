"""Time-heterogeneous ignition nonlinearities f(t,u) = a(t) f0(u).

The base profile vanishes below the ignition temperature theta and at 1,
is positive in between, and stays negative on (1, 2].  The multiplicative
modulation a(t) is bounded between declared constants a_lo and a_hi, which
makes the envelope pair f_min = a_lo*f0, f_max = a_hi*f0 exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GUARD_LO = -1.0
GUARD_HI = 3.0

#: samples of the state range in the derived-constant scans
N_STATES = 4001


class ReactionError(ValueError):
    pass


def _default_base(theta: float):
    """f0(u) = (u-theta)^3 (1-u) above theta, 0 below; C^2 in u."""

    def f0(u):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u - theta, 0.0)
        return v * v * v * (1.0 - u)

    def df0(u):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u - theta, 0.0)
        return v * v * (3.0 * (1.0 - u) - v)

    def d2f0(u):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u - theta, 0.0)
        return 6.0 * v * (1.0 - u) - 6.0 * v**2

    return f0, df0, d2f0


@dataclass(frozen=True)
class IgnitionNonlinearity:
    theta: float
    theta_tilde: float
    a_lo: float
    a_hi: float
    base: tuple          # (f0, df0, d2f0) callables
    modulation: tuple    # (a, da) callables
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ReactionError("theta must lie in (0,1)")
        if not (self.theta < self.theta_tilde < 1.0):
            raise ReactionError("theta_tilde must lie in (theta,1)")
        if not (0.0 < self.a_lo <= self.a_hi):
            raise ReactionError("need 0 < a_lo <= a_hi")

    # -- evaluators ---------------------------------------------------------

    def _guard(self, u):
        u = np.asarray(u, dtype=float)
        # NaN passes (min and max propagate it) to the stepper's finite check
        if u.size and (u.min() < GUARD_LO or u.max() > GUARD_HI):
            raise ReactionError("state outside guard range [-1, 3]")
        return u

    def eval(self, t, u):
        u = self._guard(u)
        return self.modulation[0](t) * self.base[0](u)

    def eval_du(self, t, u):
        u = self._guard(u)
        return self.modulation[0](t) * self.base[1](u)

    def eval_dt(self, t, u):
        u = self._guard(u)
        return self.modulation[1](t) * self.base[0](u)

    def eval_duu(self, t, u):
        u = self._guard(u)
        return self.modulation[0](t) * self.base[2](u)

    def f_min(self, u):
        return self.a_lo * self.base[0](self._guard(u))

    def f_max(self, u):
        return self.a_hi * self.base[0](self._guard(u))

    # -- derived constants --------------------------------------------------

    def beta_tilde(self) -> float:
        """Uniform decay slope: min over [theta_tilde, 2] of -a_lo*f0'."""
        u = np.linspace(self.theta_tilde, 2.0, N_STATES)
        return float(np.min(-self.a_lo * self.base[1](u)))

    def lipschitz_bound(self, u_hi: float = 2.0) -> float:
        """Sampled sup of |f_u| over one period x [0, u_hi]."""
        u = np.linspace(0.0, u_hi, N_STATES)
        worst = np.max(np.abs(self.base[1](u)))
        return float(max(self.a_lo, self.a_hi) * worst)

    def dt_max(self) -> float:
        """Explicit step budget 0.9 * 2 / (1 + C_fu)."""
        return 0.9 * 2.0 / (1.0 + self.lipschitz_bound())


def make_ignition(theta: float = 0.3, theta_tilde: float = 0.9,
                  a_mean: float = 1.5, a_amp: float = 0.5,
                  omega_t: float = 1.0,
                  declared_a_lo: float | None = None,
                  declared_a_hi: float | None = None) -> IgnitionNonlinearity:
    """Cubic-contact ignition family with sinusoidal modulation."""
    base = _default_base(theta)

    def a(t):
        return a_mean + a_amp * np.sin(omega_t * np.asarray(t, dtype=float))

    def da(t):
        return a_amp * omega_t * np.cos(omega_t * np.asarray(t, dtype=float))

    a_lo = a_mean - a_amp if declared_a_lo is None else declared_a_lo
    a_hi = a_mean + a_amp if declared_a_hi is None else declared_a_hi
    return IgnitionNonlinearity(
        theta=theta, theta_tilde=theta_tilde, a_lo=a_lo, a_hi=a_hi,
        base=base, modulation=(a, da),
        period=2.0 * math.pi / omega_t)


def make_default_ignition() -> IgnitionNonlinearity:
    """Canonical test family: theta=0.3, a(t)=1.5+0.5 sin t, theta~=0.9."""
    return make_ignition()


@dataclass(frozen=True)
class AutonomousSlice:
    """A frozen-in-time slice a*f0(u); drives the traveling-wave problem."""

    amplitude: float
    parent: IgnitionNonlinearity

    @property
    def theta(self) -> float:
        return self.parent.theta

    def eval(self, t, u):
        return self.amplitude * self.parent.base[0](self.parent._guard(u))

    def eval_du(self, t, u):
        return self.amplitude * self.parent.base[1](self.parent._guard(u))

    def __call__(self, u):
        return self.eval(0.0, u)

    def lipschitz_bound(self) -> float:
        u = np.linspace(0.0, 2.0, N_STATES)
        return float(self.amplitude * np.max(np.abs(self.parent.base[1](u))))

    def dt_max(self) -> float:
        return 0.9 * 2.0 / (1.0 + self.lipschitz_bound())


def min_slice(f: IgnitionNonlinearity) -> AutonomousSlice:
    return AutonomousSlice(amplitude=f.a_lo, parent=f)


def max_slice(f: IgnitionNonlinearity) -> AutonomousSlice:
    return AutonomousSlice(amplitude=f.a_hi, parent=f)


# ---------------------------------------------------------------------------
# hypothesis validation


@dataclass
class HypothesisReport:
    verdicts: dict
    c_fu: float
    sup_ft: float
    sup_fuu: float
    beta_tilde: float
    deriv_abs_integral: float
    violations: list

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def violation_lines(self) -> list[str]:
        return [f"{name} at {where}: {what}"
                for name, where, what in self.violations]

    def to_text(self) -> str:
        lines = []
        for name, ok in sorted(self.verdicts.items()):
            lines.append(f"{name}: {'pass' if ok else 'FAIL'}")
        lines.append(f"C_fu: {self.c_fu:.12g}")
        lines.append(f"sup_ft: {self.sup_ft:.12g}")
        lines.append(f"sup_fuu: {self.sup_fuu:.12g}")
        lines.append(f"beta_tilde: {self.beta_tilde:.12g}")
        lines.append(f"int_abs_J_prime: {self.deriv_abs_integral:.12g}")
        if self.violations:
            lines.append("violations:")
            lines.extend("  " + v for v in self.violation_lines())
        return "\n".join(lines)


def validate_hypotheses(kernel, f: IgnitionNonlinearity) -> HypothesisReport:
    """Sampled checks of the kernel symmetry/mass and reaction structure,
    on 64 times per period and 801 states in [-0.5, 2]."""
    verdicts = {}
    violations = []

    # H1: kernel symmetry, nonnegativity, unit mass
    sym = bool(np.array_equal(kernel.samples, kernel.samples[::-1]))
    verdicts["H1_symmetry"] = sym
    if not sym:
        bad = int(np.argmax(kernel.samples != kernel.samples[::-1]))
        violations.append(("H1_symmetry", f"offset {kernel.offsets[bad]:.6g}",
                           "J(x) != J(-x)"))
    nonneg = bool(np.all(kernel.samples >= 0.0))
    verdicts["H1_nonnegative"] = nonneg
    if not nonneg:
        bad = int(np.argmin(kernel.samples))
        violations.append(("H1_nonnegative",
                           f"offset {kernel.offsets[bad]:.6g}",
                           f"J = {kernel.samples[bad]:.3g}"))
    mass = kernel.quadrature_mass()
    verdicts["H1_unit_mass"] = bool(abs(mass - 1.0) <= 1e-12)
    if not verdicts["H1_unit_mass"]:
        violations.append(("H1_unit_mass", "stencil", f"mass = {mass!r}"))

    ts = np.linspace(0.0, f.period, 64, endpoint=False)
    us = np.linspace(-0.5, 2.0, 801)

    fvals = np.array([f.eval(t, us) for t in ts])
    fu = np.array([f.eval_du(t, us) for t in ts])
    ft = np.array([f.eval_dt(t, us) for t in ts])
    fuu = np.array([f.eval_duu(t, us) for t in ts])

    # H2: vanishing below theta and at 1, envelope bounds on [0,1]
    below = us <= f.theta
    at_one = np.argmin(np.abs(us - 1.0))
    ok = bool(np.all(fvals[:, below] == 0.0))
    verdicts["H2_zero_below_theta"] = ok
    if not ok:
        ti, ui = np.unravel_index(np.argmax(np.abs(fvals[:, below])),
                                  fvals[:, below].shape)
        violations.append(("H2_zero_below_theta",
                           f"t={ts[ti]:.4g}, u={us[below][ui]:.4g}",
                           "f nonzero below theta"))
    f_at_1 = np.array([float(f.eval(t, 1.0)) for t in ts])
    verdicts["H2_zero_at_one"] = bool(np.max(np.abs(f_at_1)) <= 1e-14)

    unit = (us >= 0.0) & (us <= 1.0)
    fmin = f.f_min(us[unit])
    fmax = f.f_max(us[unit])
    lo_ok = fvals[:, unit] >= fmin - 1e-14
    hi_ok = fvals[:, unit] <= fmax + 1e-14
    verdicts["H2_envelope"] = bool(np.all(lo_ok) and np.all(hi_ok))
    if not verdicts["H2_envelope"]:
        bad = ~(lo_ok & hi_ok)
        ti, ui = np.unravel_index(np.argmax(bad), bad.shape)
        violations.append(("H2_envelope",
                           f"t={ts[ti]:.4g}, u={us[unit][ui]:.4g}",
                           f"f={fvals[:, unit][ti, ui]:.4g} outside "
                           f"[{fmin[ui]:.4g}, {fmax[ui]:.4g}]"))

    above = (us > 1.0) & (us <= 2.0)
    verdicts["H2_negative_above_one"] = bool(np.all(fvals[:, above] < 0.0))

    # H3: bounded second derivative
    sup_fuu = float(np.max(np.abs(fuu)))
    verdicts["H3_bounded_fuu"] = bool(np.isfinite(sup_fuu))

    # H4: uniform decay slope on [theta_tilde, 2]; f = 0 below 0
    beta = f.beta_tilde()
    decay_zone = (us >= f.theta_tilde) & (us <= 2.0)
    worst_fu = float(np.max(fu[:, decay_zone]))
    verdicts["H4_decay_slope"] = bool(beta > 0.0 and worst_fu <= -beta + 1e-12)
    if not verdicts["H4_decay_slope"]:
        ti, ui = np.unravel_index(np.argmax(fu[:, decay_zone]),
                                  fu[:, decay_zone].shape)
        violations.append(("H4_decay_slope",
                           f"t={ts[ti]:.4g}, u={us[decay_zone][ui]:.4g}",
                           f"f_u = {worst_fu:.4g} > -beta~ = {-beta:.4g}"))
    neg = us < 0.0
    verdicts["H4_zero_below_zero"] = bool(np.all(fvals[:, neg] == 0.0))

    return HypothesisReport(
        verdicts=verdicts,
        c_fu=float(np.max(np.abs(fu[:, us >= 0.0]))),
        sup_ft=float(np.max(np.abs(ft))),
        sup_fuu=sup_fuu,
        beta_tilde=beta,
        deriv_abs_integral=kernel.derivative_abs_integral(),
        violations=violations)
