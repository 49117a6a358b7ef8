from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.reactions import (STATE_HI, STATE_LO, IgnitionNonlinearity,
                                make_default_ignition, make_ignition,
                                max_slice, min_slice, validate_hypotheses)
from kernel_helpers import with_samples

THETA = 0.3


def sabotaged(method, fn):
    """The default family with one evaluator replaced by
    fn(default value, u)."""
    def broken(self, t, u):
        return fn(getattr(IgnitionNonlinearity, method)(self, t, u),
                  np.asarray(u))
    cls = type("Sabotaged", (IgnitionNonlinearity,), {method: broken})
    return cls(**asdict(make_default_ignition()))


def rescaled(kernel, mask, factor):
    samples = kernel.samples.copy()
    samples[mask] *= factor
    return with_samples(kernel, samples)


#: one sabotage per hypothesis: (kernel, f) -> (kernel, f) breaking it
SABOTAGES = {
    "H1_symmetry": lambda k, f: (rescaled(k, 0, 3.0), f),
    "H1_nonnegative": lambda k, f: (rescaled(k, [0, -1], -1.0), f),
    "H1_unit_mass": lambda k, f: (rescaled(k, slice(None), 1.001), f),
    "H2_zero_below_theta": lambda k, f: (k, sabotaged(
        "eval", lambda v, u: v + 1e-3 * ((u > 0.0) & (u <= THETA)))),
    # NaN only at u = 1 exactly: the check must sample u = 1 and a NaN
    # must fail it
    "H2_zero_at_one": lambda k, f: (k, sabotaged(
        "eval", lambda v, u: np.where(u == 1.0, np.nan, v))),
    # bounds declared tighter than a(t)'s range [1, 2]
    "H2_envelope": lambda k, f: (k, replace(f, a_lo=1.2, a_hi=1.8)),
    # a(t) = 0.2 + 0.5 sin t changes sign, so f turns positive above 1
    "H2_negative_above_one": lambda k, f: (k, replace(
        f, a_mean=0.2, a_lo=0.01, a_hi=0.7)),
    "H3_bounded_fuu": lambda k, f: (k, sabotaged(
        "eval_duu", lambda v, u: np.where(u > 1.5, np.inf, v))),
    "H4_decay_slope": lambda k, f: (k, make_ignition(theta_tilde=0.7)),
    "H4_zero_below_zero": lambda k, f: (k, sabotaged(
        "eval", lambda v, u: v - 1e-3 * (u < 0.0))),
}


class TestBaseProfile:
    def test_values(self, f):
        # f0(u) = (u - 0.3)^3 (1 - u); a(0) = 1.5
        assert f.eval(0.0, 0.9) == pytest.approx(1.5 * 0.6**3 * 0.1)
        assert f.eval(0.0, 0.2) == 0.0
        assert f.eval(0.0, 1.0) == 0.0
        assert f.eval(0.0, 1.5) < 0.0

    def test_modulation(self, f):
        u = 0.7
        t = np.pi / 2.0
        assert f.eval(t, u) == pytest.approx(2.0 * 0.4**3 * 0.3)
        assert f.eval(-np.pi / 2.0, u) == pytest.approx(1.0 * 0.4**3 * 0.3)

    def test_envelope_is_tight(self, f):
        u = np.linspace(0.0, 1.0, 401)
        t = np.linspace(0.0, 2 * np.pi, 101)
        vals = np.array([f.eval(ti, u) for ti in t])
        assert np.all(vals >= min_slice(f).eval(0.0, u)[None, :] - 1e-14)
        assert np.all(vals <= max_slice(f).eval(0.0, u)[None, :] + 1e-14)

    def test_derivatives_match_finite_differences(self, f):
        u = np.linspace(0.0, 1.8, 37)
        du = 1e-6
        fd = (f.eval(1.3, u + du) - f.eval(1.3, u - du)) / (2 * du)
        assert np.max(np.abs(fd - f.eval_du(1.3, u))) < 1e-7
        dt = 1e-6
        fd_t = (f.eval(1.3 + dt, u) - f.eval(1.3 - dt, u)) / (2 * dt)
        assert np.max(np.abs(fd_t - f.eval_dt(1.3, u))) < 1e-7


class TestDerivedConstants:
    def test_beta_tilde(self, f):
        # -a_lo f0'(u) on [0.9, 2] attains its min at u = 0.9:
        # f0'(0.9) = 3*0.6^2*0.1 - 0.6^3 = -0.108; a_lo = 1.0
        assert f.beta_tilde() == pytest.approx(0.108, abs=1e-6)

    def test_lipschitz_bound_global(self, f):
        # sup over [0, STATE_HI] is attained at u = 1.1, a sampled end:
        # a_hi |f0'(1.1)| = 2 |3*0.8^2*(-0.1) - 0.8^3| = 1.408
        exact = 2.0 * abs(3 * 0.8**2 * (-0.1) - 0.8**3)
        assert exact == pytest.approx(1.408, rel=1e-12)
        assert f.lipschitz_bound() == pytest.approx(exact, rel=1e-12)

    def test_lipschitz_bound_state_range(self, f):
        # one state range, and the bound covers |f_u| over all of it
        assert (STATE_LO, STATE_HI) == (-0.05, 1.1)
        u = np.linspace(STATE_LO, STATE_HI, 1151)
        t = np.linspace(0.0, f.period, 64, endpoint=False)
        sup_fu = max(float(np.max(np.abs(f.eval_du(ti, u)))) for ti in t)
        assert sup_fu <= f.lipschitz_bound() * (1.0 + 1e-12)
        assert sup_fu == pytest.approx(f.lipschitz_bound(), rel=1e-3)

    def test_dt_max(self, f):
        # RK4's real stability interval 2.785 over the spectrum bound
        # 2 + C_fu of the linearization (|J^| <= 1)
        assert f.dt_max() == pytest.approx(
            0.9 * 2.785 / (2.0 + f.lipschitz_bound()), rel=1e-15)
        assert 0.73 < f.dt_max() < 0.74
        assert max_slice(f).dt_max() == pytest.approx(f.dt_max(), rel=1e-15)

    def test_slices(self, f):
        lo, hi = min_slice(f), max_slice(f)
        u = 0.7
        assert lo.eval(0.0, u) == pytest.approx(1.0 * 0.4**3 * 0.3)
        assert hi.eval(0.0, u) == pytest.approx(2.0 * 0.4**3 * 0.3)
        assert lo.theta == THETA
        # slices are autonomous: time argument is ignored
        assert lo.eval(0.0, u) == lo.eval(17.0, u)


class TestValidateHypotheses:
    def test_default_family_passes(self, kernel, f):
        report = validate_hypotheses(kernel, f)
        assert all(report.verdicts.values())
        assert report.violations == []
        constants = report.constants
        assert constants["beta_tilde"] == pytest.approx(0.108, abs=1e-6)
        assert constants["c_fu"] == f.lipschitz_bound()
        assert constants["c_fu"] == pytest.approx(1.408, rel=1e-12)
        assert constants["int_abs_J_prime"] == \
            kernel.derivative_abs_integral()
        assert set(constants) == {"c_fu", "beta_tilde", "sup_ft", "sup_fuu",
                                  "int_abs_J_prime"}

    def test_asymmetric_kernel_fails_h1(self, kernel, f):
        skew = kernel.samples.copy()
        skew[0] *= 3.0
        report = validate_hypotheses(with_samples(kernel, skew), f)
        assert not report.verdicts["H1_symmetry"]
        assert any(v.startswith("H1_symmetry at ")
                   for v in report.violations)
        # the reaction-side checks still pass: failure is localized
        assert report.verdicts["H2_zero_below_theta"]

    def test_low_theta_tilde_fails_h4(self, kernel, f):
        # f0' has its sign change at (3 theta + 1)/4 = 0.475 and the decay
        # condition needs theta_tilde past the interior maximum; below the
        # critical point (3 + theta)/4 = 0.825 the slope bound fails
        bad = make_ignition(theta_tilde=0.7)
        report = validate_hypotheses(kernel, bad)
        assert not report.verdicts["H4_decay_slope"]
        assert report.verdicts["H1_symmetry"]

    def test_envelope_violation_fails_h2(self, kernel, f):
        bad = replace(f, a_lo=1.2, a_hi=1.8)
        report = validate_hypotheses(kernel, bad)
        assert not report.verdicts["H2_envelope"]
        assert any(v.startswith("H2_envelope at ")
                   for v in report.violations)

    @pytest.mark.parametrize("name", sorted(SABOTAGES))
    def test_every_hypothesis_can_fail(self, kernel, f, name):
        report = validate_hypotheses(*SABOTAGES[name](kernel, f))
        assert set(SABOTAGES) == set(report.verdicts)
        assert not report.verdicts[name]
        assert any(line.startswith(f"{name} at ")
                   for line in report.violations)


class TestConstruction:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            make_ignition(theta=1.2)
        with pytest.raises(ValueError):
            make_ignition(theta=0.5, theta_tilde=0.4)
        with pytest.raises(ValueError):
            replace(make_default_ignition(), a_lo=-1.0)
        with pytest.raises(ValueError):   # period 2 pi / omega_t
            make_ignition(omega_t=0.0)

    def test_default_is_reproducible(self):
        f1, f2 = make_default_ignition(), make_default_ignition()
        u = np.linspace(0, 1, 11)
        assert np.array_equal(f1.eval(0.7, u), f2.eval(0.7, u))


@settings(max_examples=30, deadline=None)
@given(u=st.floats(min_value=-0.99, max_value=2.99),
       t=st.floats(min_value=-50.0, max_value=50.0))
def test_eval_du_is_derivative_everywhere(u, t):
    f = make_default_ignition()
    du = 1e-6
    if abs(u - THETA) < 1e-4:      # kink of the cubic contact
        return
    fd = (f.eval(t, u + du) - f.eval(t, u - du)) / (2 * du)
    assert fd == pytest.approx(float(f.eval_du(t, u)), abs=1e-5, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(min_value=0.0, max_value=0.9))
def test_envelope_holds_for_any_amplitude(amp):
    f = make_ignition(a_amp=amp)
    u = np.linspace(0.31, 1.0, 50)
    for t in np.linspace(0.0, 2 * np.pi, 17):
        vals = f.eval(t, u)
        assert np.all(vals >= min_slice(f).eval(0.0, u) - 1e-14)
        assert np.all(vals <= max_slice(f).eval(0.0, u) + 1e-14)
