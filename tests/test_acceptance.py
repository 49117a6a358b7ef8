"""Acceptance suite: one test per headline property, printed pass/fail.

Each test evaluates its criterion at the stated tolerance, prints a single
``ACCEPTANCE NN <name>: PASS/FAIL`` line to the terminal, and then asserts.
Tests 03, 05, 07, 08, 11 and 12 check gates that the CLI experiments
(`front`, `steepness`, `tails`, `stability`, `asymptotic`) hold: they run the
experiment at the default config and take its exit code as the verdict.
Heavy inputs come from session-scoped fixtures and from the CLI's
per-process front memo, so the default front is built once.
"""

import dataclasses
import json
import math
from itertools import compress

import numpy as np
import pytest

from frontlab import cli
from frontlab.evolve import evolve
from frontlab.fields import FieldState, Grid, smoothed_step
from frontlab.fronts import locate_level
from frontlab.kernels import build_kernel, convolve, exponential_moment
from frontlab.reactions import make_ignition, max_slice, min_slice, \
    validate_hypotheses
from frontlab.stability import PerturbationEnvelope, gamma_convolution
from kernel_helpers import with_samples
from theorem_helpers import lipschitz_estimate, subsupersolution_residual

DT = 0.05
#: the spacing of test 13's kernel, a quadrature node spacing and not a
#: time step
MOMENT_SPACING = 0.05


def _report(capsys, num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {tag}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)


def _cli(out_dir, name, **experiment):
    """Run one CLI experiment at the default config: (passed, summary).

    A run that exits before writing summary.json (a config or solver error)
    gets a summary that names its exit code as the failure.
    """
    cfg = cli.load_config(None)
    cfg["experiment"].update(name=name, **experiment)
    code = cli._run_experiment(name, cfg, out_dir, quiet=True)
    path = out_dir / "summary.json"
    summary = (json.loads(path.read_text()) if path.exists()
               else {"failure": f"{name} exited {code}"})
    return code == cli.EXIT_OK, summary


def _detail(summary, template):
    """The template filled from a passing summary, or the failure."""
    return summary.get("failure") or template.format(**summary)


@pytest.fixture(scope="module")
def front_cli(tmp_path_factory):
    """One `front` run; its gates are the speed envelope and the width."""
    return _cli(tmp_path_factory.mktemp("front"), "front")


def test_01_hypothesis_gate(capsys, kernel, f):
    report = validate_hypotheses(kernel, f)
    ok = report.all_pass

    # three crafted violations, each flagged at the right hypothesis only
    skew = kernel.samples.copy()
    skew[0] *= 3.0
    asym = validate_hypotheses(with_samples(kernel, skew), f)
    ok &= (not asym.verdicts["H1_symmetry"]
           and asym.verdicts["H2_zero_below_theta"])

    low = validate_hypotheses(kernel, make_ignition(theta_tilde=0.7))
    ok &= not low.verdicts["H4_decay_slope"] and low.verdicts["H1_symmetry"]

    env = validate_hypotheses(kernel, dataclasses.replace(f, a_lo=1.2,
                                                          a_hi=1.8))
    ok &= not env.verdicts["H2_envelope"] and env.verdicts["H1_symmetry"]

    _report(capsys, 1, "hypothesis gate", ok,
            f"default all_pass={report.all_pass}, 3 counterexamples flagged")
    assert ok


def test_02_traveling_wave(capsys, kernel, f, tw_min, tw_max):
    details = []
    ok = tw_min.speed > 0.0 and tw_max.speed > tw_min.speed
    for tw, slc in ((tw_min, min_slice(f)), (tw_max, max_slice(f))):
        state = FieldState(t=0.0, x=tw.x, u=tw.phi)
        res = (convolve(kernel, state) - tw.phi + tw.speed * tw.dphi
               + slc.eval(0.0, tw.phi))
        interior = np.abs(tw.x) <= 40.0
        res_sup = float(np.max(np.abs(res[interior])))
        ok &= res_sup <= 1e-6
        details.append(f"res={res_sup:.2e}")

        # independent evolution of the autonomous equation; the speed
        # converges slowly from generic data, so fit a late window
        grid = Grid(-40.0, 40.0, 1601)
        traj = evolve(smoothed_step(grid), kernel, slc, 250.0, DT,
                      track_front=True, snapshot_every=1.0)
        late = [s for s in traj.snapshots if s.t >= 180.0]
        speed = float(np.polyfit([s.t for s in late],
                                 [locate_level(s, f.theta) for s in late],
                                 1)[0])
        ok &= abs(speed - tw.speed) <= 0.01 * tw.speed
        details.append(f"c={tw.speed:.5f} vs measured {speed:.5f}")
    _report(capsys, 2, "traveling wave", ok, "; ".join(details))
    assert ok


def test_03_speed_envelope(capsys, front_cli):
    ok, summary = front_cli
    _report(capsys, 3, "speed envelope", ok, _detail(
        summary, "speeds in [{speed_min:.4f}, {speed_max:.4f}], "
        "envelope [{envelope_lo:.4f}, {envelope_hi:.4f}]"))
    assert ok


def test_04_comparison_principle(capsys, kernel, f, rng):
    grid = Grid(-30.0, 30.0, 1201)
    # the t = 0 ordering apart: there hi = lo wherever hi_u <= lo
    initial_margin = worst_margin = kept_share = np.inf
    monotone_ok = True
    # the 100 pairs as the lanes of a few evolves, as `comparison` runs them
    for first in range(0, 100, cli.COMPARISON_BATCH):
        lo, hi = [], []
        for _ in range(min(cli.COMPARISON_BATCH, 100 - first)):
            center = rng.uniform(-5.0, 5.0)
            width = rng.uniform(0.8, 4.0)
            lo.append(smoothed_step(grid, center=center, width=width).u)
            # ordered companion: same shape shifted right and lifted
            shift = rng.uniform(0.0, 3.0)
            lift = rng.uniform(0.0, 0.2)
            hi_u = np.clip(0.5 * (1.0 - np.tanh((grid.x - center - shift)
                                                / width)) + lift, 0.0, 1.0)
            hi.append(np.maximum(lo[-1], hi_u))
        b = len(lo)
        lanes = FieldState(t=0.0, x=grid.x, u=np.stack(lo + hi),
                           u_left=np.ones(2 * b), u_right=np.zeros(2 * b))
        first_snap, *evolved = evolve(lanes, kernel, f, 3.0, DT,
                                      snapshot_every=1.0).snapshots
        gap0 = first_snap.u[b:] - first_snap.u[:b]
        initial_margin = min(initial_margin, float(np.min(gap0)))
        # the share of its t = 0 gap each node keeps, over the nodes where
        # the lanes differ by more than rounding at t = 0 (elsewhere, as on
        # the saturated left edge with both lanes 1.0, the gap stays ~0)
        apart = gap0 > 1e-12
        for snap in evolved:
            gap = snap.u[b:] - snap.u[:b]
            worst_margin = min(worst_margin, float(np.min(gap)))
            kept_share = min(kept_share,
                             float(np.min(gap[apart] / gap0[apart])))
            monotone_ok &= snap.is_monotone(tol=1e-10)
    assert initial_margin >= 0.0
    ok = worst_margin >= -1e-8 and monotone_ok
    _report(capsys, 4, "comparison principle", ok,
            f"min margin {worst_margin:.2e} (where the lanes differ at t=0, "
            f"the least share of that gap kept: {kept_share:.3f}), "
            f"monotone={monotone_ok}")
    assert ok


def test_05_bounded_width(capsys, front_cli):
    ok, summary = front_cli
    _report(capsys, 5, "bounded interface width", ok, _detail(
        summary, "width max {width_max:.3f}, median {width_median:.3f}"))
    assert ok


def test_06_regularity(capsys, front_run):
    ts, sup_w, lip_w = [], [], []
    for snap in compress(front_run.snapshots, front_run.settled):
        ts.append(snap.t)
        sup_w.append(float(np.max(np.abs(snap.w))))
        lip_w.append(lipschitz_estimate(snap.w, snap.h))
    ts = np.array(ts)
    span = ts[-1] - ts[0]
    ok = True
    details = []
    for label, series in (("sup|u_x|", np.array(sup_w)),
                          ("Lip(u_x)", np.array(lip_w))):
        slope = float(np.polyfit(ts, series, 1)[0])
        drift = abs(slope) * span
        bound = 0.05 * float(np.mean(series))
        ok &= drift <= bound
        details.append(f"{label} drift {drift:.2e} <= {bound:.2e}")
    _report(capsys, 6, "regularity statistics stable", ok,
            "; ".join(details))
    assert ok


def test_07_steepness(capsys, tmp_path):
    ok, summary = _cli(tmp_path, "steepness")
    _report(capsys, 7, "uniform steepness", ok, _detail(
        summary, "alpha_M={alpha_m:.4f}, bound margin {bound_margin_min:.2e}"
        " (constant {bound_constant:.2e})"))
    assert ok


def test_08_derivative_tails(capsys, tmp_path):
    ok, summary = _cli(tmp_path, "tails")
    _report(capsys, 8, "derivative tails", ok, _detail(
        summary, "right {right_rate:.4f} (R2 {right_r2:.4f}) against "
        "target {target_rate:.4f}, left {left_rate:.4f}"))
    assert ok


def test_09_gamma_m2_bound(capsys, kernel, sparams):
    xs = np.arange(sparams.M2, sparams.M2 + 30.0, 0.25)
    err = np.abs(np.exp(sparams.alpha * (xs - sparams.M1))
                 * gamma_convolution(kernel, sparams.gamma, xs) - 1.0)
    worst = float(np.max(err))
    bound = 0.25 * sparams.alpha * sparams.c_min + 1e-8
    ok = worst <= bound
    _report(capsys, 9, "Gamma/M2 moment bound", ok,
            f"max defect {worst:.3e} <= {bound:.3e}")
    assert ok


def test_10_subsuper_residuals(capsys, fine_traj, x_track, sparams,
                               kernel, f):
    snaps = fine_traj.snapshots
    t0 = snaps[0].t
    ok = True
    details = []
    for eps in (sparams.eps0 / 4.0, sparams.eps0 / 2.0, sparams.eps0):
        env = PerturbationEnvelope(t0=t0, eps=eps, omega=sparams.omega,
                                   A=sparams.A)
        sub = subsupersolution_residual(snaps, x_track, sparams, env, -1,
                                        kernel, f)
        sup = subsupersolution_residual(snaps, x_track, sparams, env, +1,
                                        kernel, f)
        ok &= sub.sup_residual <= 1e-4 and sup.inf_residual >= -1e-4
        details.append(f"eps={eps:.1e}: sub {sub.sup_residual:.1e}, "
                       f"super {sup.inf_residual:.1e}")
    # sabotage: drop the drift term and inflate eps -- must be detected
    bad_params = dataclasses.replace(sparams, A=0.0, eps0=0.05)
    bad_env = PerturbationEnvelope(t0=t0, eps=0.05, omega=sparams.omega,
                                   A=0.0)
    bad = subsupersolution_residual(snaps, x_track, bad_params, bad_env, -1,
                                    kernel, f)
    ok &= bad.sup_residual > 1e-3
    details.append(f"A=0 sabotage residual {bad.sup_residual:.1e} > 1e-3")
    _report(capsys, 10, "sub/super-solution residuals", ok,
            "; ".join(details))
    assert ok


def test_11_stability_sandwich(capsys, tmp_path):
    ok, summary = _cli(tmp_path, "stability")
    _report(capsys, 11, "stability sandwich", ok, _detail(
        summary, "worst violation {worst_violation:.2e} (interior "
        "{interior_worst_violation:.2e}, edge defect {edge_defect:.2e}), "
        "d(3/omega)={distance_at_3_over_omega:.2e}, eps={eps:.2e}"))
    assert ok


def test_12_asymptotic_stability(capsys, tmp_path):
    # the mollified step at the reference interface, and a liminf-above-
    # theta plateau that the paired run lifts toward 1
    ok = True
    details = []
    for shape in ("mollified_step", "liminf_above_theta"):
        good, summary = _cli(tmp_path / shape, "asymptotic", initial=shape)
        ok &= good
        details.append(_detail(
            summary, "{initial}: rate={rate:.4f}, R2={r_squared:.4f}, "
            "zeta* spread {zeta_star_spread:.1e}"))
    _report(capsys, 12, "asymptotic stability", ok, "; ".join(details))
    assert ok


def test_13_moment_function(capsys):
    kern = build_kernel("gaussian", spacing=MOMENT_SPACING,
                        tail_tolerance=1e-9, sigma=1.0)
    ok = True
    worst = 0.0
    for r in (0.25, 0.5, 1.0):
        err = abs(exponential_moment(kern, r) - math.exp(0.5 * r * r))
        worst = max(worst, err)
        ok &= err <= 1e-8
    ratios = [(exponential_moment(kern, r) - 1.0) / r ** 2
              for r in (0.01, 0.02)]
    dev = abs(ratios[1] - ratios[0]) / abs(ratios[0])
    ok &= dev < 0.25
    _report(capsys, 13, "moment function", ok,
            f"max |I(r)-exp(r^2/2)|={worst:.1e} <= 1e-8, "
            f"small-r ratio deviation {dev:.1%} < 25%")
    assert ok
