"""Time-heterogeneous ignition nonlinearities f(t,u) = a(t) f0(u).

The base profile f0(u) = (u - theta)^3 (1 - u) vanishes below the ignition
temperature theta and at 1, is positive in between, and stays negative on
(1, 2].  The modulation a(t) = a_mean + a_amp sin(omega_t t) is bounded
between declared constants a_lo and a_hi, which makes the envelope pair
min_slice = a_lo*f0, max_slice = a_hi*f0 exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: the one state range: solutions from data in [0, 1] stay there, so the
#: stepper guards it and the derived constants sample it (N_STATES points)
STATE_LO, STATE_HI = -0.05, 1.1
N_STATES = 4001


def _dt_max(c_fu: float) -> float:
    """RK4 step cap 0.9 * 2.785 / (2 + C_fu): |J^| <= 1 puts the
    linearization's spectrum in [-2 - C_fu, C_fu], and RK4 is stable on
    [-2.785, 0] of the real axis (Hairer & Wanner, ODEs II, IV.2)."""
    return 0.9 * 2.785 / (2.0 + c_fu)


@dataclass(frozen=True)
class IgnitionNonlinearity:
    theta: float
    theta_tilde: float
    a_lo: float
    a_hi: float
    a_mean: float
    a_amp: float
    omega_t: float

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0,1)")
        if not (self.theta < self.theta_tilde < 1.0):
            raise ValueError("theta_tilde must lie in (theta,1)")
        if not (0.0 < self.a_lo <= self.a_hi):
            raise ValueError("need 0 < a_lo <= a_hi")
        if not self.omega_t > 0.0:
            raise ValueError("omega_t must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega_t

    # -- factors: f0 is C^2 in u --------------------------------------------

    def f0(self, u, out=None, work=None):
        # out and work, arrays of u's shape, take the result and a temporary
        u = np.asarray(u, dtype=float)
        v = np.maximum(np.subtract(u, self.theta, out=work), 0.0, out=work)
        out = np.multiply(v, v, out=out)
        out *= v
        out *= np.subtract(1.0, u, out=work)  # v is spent
        return out

    def df0(self, u, out=None, work=None):
        # out and work as in f0; the products of v*v*(3(1-u) - v), reordered
        u = np.asarray(u, dtype=float)
        v = np.maximum(np.subtract(u, self.theta, out=work), 0.0, out=work)
        out = np.subtract(1.0, u, out=out)
        out *= 3.0
        out -= v
        out *= np.multiply(v, v, out=work)  # v is spent
        return out

    def d2f0(self, u):
        u = np.asarray(u, dtype=float)
        v = np.maximum(u - self.theta, 0.0)
        return 6.0 * v * (1.0 - u) - 6.0 * v**2

    def a(self, t):
        return self.a_mean + self.a_amp * np.sin(self.omega_t * t)

    def da(self, t):
        return self.a_amp * self.omega_t * np.cos(self.omega_t * t)

    # -- evaluators ---------------------------------------------------------

    def eval(self, t, u, out=None, work=None):
        return np.multiply(self.f0(u, out, work), self.a(t), out=out)

    def eval_du(self, t, u, out=None, work=None):
        return np.multiply(self.df0(u, out, work), self.a(t), out=out)

    def eval_dt(self, t, u):
        return self.da(t) * self.f0(u)

    def eval_duu(self, t, u):
        return self.a(t) * self.d2f0(u)

    # -- derived constants --------------------------------------------------

    def beta_tilde(self) -> float:
        """Uniform decay slope: min over [theta_tilde, STATE_HI] of
        -a_lo*f0'."""
        u = np.linspace(self.theta_tilde, STATE_HI, N_STATES)
        return float(np.min(-self.a_lo * self.df0(u)))

    def sup_df0(self) -> float:
        """Sampled sup of |f0'| over [0, STATE_HI]."""
        u = np.linspace(0.0, STATE_HI, N_STATES)
        return float(np.max(np.abs(self.df0(u))))

    def lipschitz_bound(self) -> float:
        """Sampled sup of |f_u| over one period x [0, STATE_HI]."""
        return self.a_hi * self.sup_df0()

    def dt_max(self) -> float:
        return _dt_max(self.lipschitz_bound())


def make_ignition(theta: float = 0.3, theta_tilde: float = 0.9,
                  a_mean: float = 1.5, a_amp: float = 0.5,
                  omega_t: float = 1.0) -> IgnitionNonlinearity:
    """Cubic-contact ignition family with sinusoidal modulation, its bounds
    a_lo, a_hi the exact extremes a_mean -/+ a_amp."""
    return IgnitionNonlinearity(
        theta=theta, theta_tilde=theta_tilde, a_lo=a_mean - a_amp,
        a_hi=a_mean + a_amp, a_mean=a_mean, a_amp=a_amp, omega_t=omega_t)


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

    def eval(self, t, u, out=None, work=None):
        return np.multiply(self.parent.f0(u, out, work), self.amplitude,
                           out=out)

    def eval_du(self, t, u, out=None, work=None):
        return np.multiply(self.parent.df0(u, out, work), self.amplitude,
                           out=out)

    def dt_max(self) -> float:
        return _dt_max(self.amplitude * self.parent.sup_df0())


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
    """Sampled checks of the kernel symmetry/mass (H1) on the stencil and
    of the reaction structure (H2-H4) on 64 times per period x 801 states
    in [-0.5, 2].  Each check is a mask of failing samples; a failed check
    names its first failing sample, the value there and the bound."""
    ts = np.linspace(0.0, f.period, 64, endpoint=False)
    us = np.linspace(-0.5, 2.0, 801)  # us[480] is exactly 1
    fvals, fu, ft, fuu = (np.array([g(t, us) for t in ts]) for g in
                          (f.eval, f.eval_du, f.eval_dt, f.eval_duu))
    J, mass = kernel.samples, np.array(kernel.quadrature_mass())
    beta = f.beta_tilde()
    lo, hi = min_slice(f).eval(0.0, us), max_slice(f).eval(0.0, us)

    # name -> (mask of failing samples, sampled values, the bound); each
    # mask is ~ok, so that a NaN fails
    checks = {
        "H1_symmetry": (~(J == J[::-1]), J, "J(x) = J(-x)"),
        "H1_nonnegative": (~(J >= 0.0), J, "J >= 0"),
        "H1_unit_mass": (~(abs(mass - 1.0) <= 1e-12), mass,
                         "|mass - 1| <= 1e-12"),
        "H2_zero_below_theta": ((us <= f.theta) & ~(fvals == 0.0), fvals,
                                "f = 0 for u <= theta"),
        "H2_zero_at_one": ((us == 1.0) & ~(abs(fvals) <= 1e-14), fvals,
                           "|f(t, 1)| <= 1e-14"),
        "H2_envelope": ((us >= 0.0) & (us <= 1.0)
                        & ~((fvals >= lo - 1e-14) & (fvals <= hi + 1e-14)),
                        fvals, f"{f.a_lo:g} f0 <= f <= {f.a_hi:g} f0 "
                        "(to 1e-14)"),
        "H2_negative_above_one": ((us > 1.0) & (us <= 2.0) & ~(fvals < 0.0),
                                  fvals, "f < 0 for u in (1, 2]"),
        "H3_bounded_fuu": (~np.isfinite(fuu), fuu, "f_uu finite"),
        "H4_decay_slope": ((us >= f.theta_tilde) & (us <= 2.0)
                           & ~((beta > 0.0) & (fu <= -beta + 1e-12)), fu,
                           f"f_u <= -beta~ = {-beta:.4g} (to 1e-12), "
                           "beta~ > 0"),
        "H4_zero_below_zero": ((us < 0.0) & ~(fvals == 0.0), fvals,
                               "f = 0 for u < 0"),
    }
    places = {0: ((), "stencil"), 1: ((kernel.offsets,), "offset {:.6g}"),
              2: ((ts, us), "t={:.4g}, u={:.4g}")}
    verdicts, violations = {}, []
    for name, (bad, values, bound) in checks.items():
        verdicts[name] = not bad.any()
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            axes, label = places[bad.ndim]
            violations.append((name,
                               label.format(*(a[k] for a, k in zip(axes, i))),
                               f"{values[i]:.12g} breaks {bound}"))
    return HypothesisReport(
        verdicts=verdicts, c_fu=f.lipschitz_bound(),
        sup_ft=float(np.max(np.abs(ft))), sup_fuu=float(np.max(np.abs(fuu))),
        beta_tilde=beta, deriv_abs_integral=kernel.derivative_abs_integral(),
        violations=violations)
