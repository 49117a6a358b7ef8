import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.reactions import (IgnitionNonlinearity, ReactionError,
                                make_default_ignition, make_ignition,
                                max_slice, min_slice, validate_hypotheses)
from kernel_helpers import with_samples

THETA = 0.3


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
        assert np.all(vals >= f.f_min(u)[None, :] - 1e-14)
        assert np.all(vals <= f.f_max(u)[None, :] + 1e-14)

    def test_derivatives_match_finite_differences(self, f):
        u = np.linspace(0.0, 1.8, 37)
        du = 1e-6
        fd = (f.eval(1.3, u + du) - f.eval(1.3, u - du)) / (2 * du)
        assert np.max(np.abs(fd - f.eval_du(1.3, u))) < 1e-7
        dt = 1e-6
        fd_t = (f.eval(1.3 + dt, u) - f.eval(1.3 - dt, u)) / (2 * dt)
        assert np.max(np.abs(fd_t - f.eval_dt(1.3, u))) < 1e-7

    def test_guard_range(self, f):
        with pytest.raises(ReactionError):
            f.eval(0.0, 3.5)
        with pytest.raises(ReactionError):
            f.eval(0.0, -1.5)


class TestDerivedConstants:
    def test_beta_tilde(self, f):
        # -a_lo f0'(u) on [0.9, 2] attains its min at u = 0.9:
        # f0'(0.9) = 3*0.6^2*0.1 - 0.6^3 = -0.108; a_lo = 1.0
        assert f.beta_tilde() == pytest.approx(0.108, abs=1e-6)

    def test_lipschitz_bound_global(self, f):
        # sup over [0,2] is attained at u = 2: |3*1.7^2*(-1) - 1.7^3| * 2
        exact = 2.0 * abs(3 * 1.7**2 * (-1.0) - 1.7**3)
        assert f.lipschitz_bound() == pytest.approx(exact, rel=1e-3)

    def test_lipschitz_bound_state_range(self, f):
        # over the range perturbed solutions visit the constant is modest
        assert f.lipschitz_bound(1.1) == pytest.approx(1.408, abs=1e-2)

    def test_dt_max(self, f):
        assert f.dt_max() == pytest.approx(1.8 / (1.0 + f.lipschitz_bound()))
        assert 0.05 < f.dt_max() < 0.07

    def test_slices(self, f):
        lo, hi = min_slice(f), max_slice(f)
        u = 0.7
        assert lo(u) == pytest.approx(1.0 * 0.4**3 * 0.3)
        assert hi(u) == pytest.approx(2.0 * 0.4**3 * 0.3)
        assert lo.theta == THETA
        # slices are autonomous: time argument is ignored
        assert lo.eval(0.0, u) == lo.eval(17.0, u)


class TestValidateHypotheses:
    def test_default_family_passes(self, kernel, f):
        report = validate_hypotheses(kernel, f)
        assert report.all_pass
        assert report.violations == []
        assert report.beta_tilde == pytest.approx(0.108, abs=1e-6)
        assert report.c_fu == pytest.approx(27.166, abs=1e-2)

    def test_asymmetric_kernel_fails_h1(self, kernel, f):
        skew = kernel.samples.copy()
        skew[0] *= 3.0
        report = validate_hypotheses(with_samples(kernel, skew), f)
        assert not report.verdicts["H1_symmetry"]
        assert any(v[0] == "H1_symmetry" for v in report.violations)
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
        bad = make_ignition(declared_a_lo=1.2, declared_a_hi=1.8)
        report = validate_hypotheses(kernel, bad)
        assert not report.verdicts["H2_envelope"]
        assert any(v[0] == "H2_envelope" for v in report.violations)

    def test_report_text(self, kernel, f):
        text = validate_hypotheses(kernel, f).to_text()
        assert "H1_symmetry: pass" in text
        assert "beta_tilde" in text


class TestConstruction:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ReactionError):
            make_ignition(theta=1.2)
        with pytest.raises(ReactionError):
            make_ignition(theta=0.5, theta_tilde=0.4)
        with pytest.raises(ReactionError):
            make_ignition(declared_a_lo=-1.0)

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
    fd = (f.eval(t, min(u + du, 3.0)) - f.eval(t, max(u - du, -1.0)))
    fd /= (min(u + du, 3.0) - max(u - du, -1.0))
    assert fd == pytest.approx(float(f.eval_du(t, u)), abs=1e-5, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(amp=st.floats(min_value=0.0, max_value=0.9))
def test_envelope_holds_for_any_amplitude(amp):
    f = make_ignition(a_amp=amp)
    u = np.linspace(0.31, 1.0, 50)
    for t in np.linspace(0.0, 2 * np.pi, 17):
        vals = f.eval(t, u)
        assert np.all(vals >= f.f_min(u) - 1e-14)
        assert np.all(vals <= f.f_max(u) + 1e-14)
