import contextlib
import functools
import hashlib
import importlib
import importlib.metadata
import io
import json
import multiprocessing
import os
import pkgutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import frontlab
from frontlab import cli, evolve, fronts, stability
from frontlab.cli import load_config, main
from frontlab.evolve import TRANSIENT, Stepper
from frontlab.fields import SolverError, profile_interp, smoothed_step
from frontlab.fronts import locate_level
from frontlab.reactions import min_slice
from frontlab.stability import (AsymptoticReport, StabilityReport,
                                comparison_test)
from trajectory_helpers import linear_crossing


class _Runner:
    """click.testing.CliRunner's shape: invoke(main, args) runs main in
    this process and returns its exit_code, its output (stdout and stderr
    merged, as click 8.2+ does) and its stderr alone."""

    def invoke(self, main, args):
        output, stderr = io.StringIO(), io.StringIO()

        class Merged(io.TextIOBase):  # stderr, written to output as well
            def write(self, text):
                output.write(text)
                return stderr.write(text)

        code = 0
        with contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(Merged()):
            try:
                main(args)
            except SystemExit as exit_:
                code = exit_.code
        return types.SimpleNamespace(exit_code=code, output=output.getvalue(),
                                     stderr=stderr.getvalue())


@pytest.fixture()
def runner():
    return _Runner()


def _write_cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["kernel"]["family"] == "gaussian"
        assert cfg["time"]["dt"] == 0.2

    def test_deep_merge(self, tmp_path):
        path = _write_cfg(tmp_path, {"time": {"dt": 0.02}})
        cfg = load_config(path)
        assert cfg["time"]["dt"] == 0.02
        assert cfg["time"]["t_end"] == 60.0   # untouched default

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError):
            load_config(str(path))


def _misspelt_keys():
    """The params (experiment, config, dotted path) of every key the config
    schema names, each with an x appended at the place its default sits:
    every section and value of DEFAULTS, and each experiment's keys (name
    among them) under the experiment that reads them."""
    keys = [("front", key, val) for key, val in cli.DEFAULTS.items()]
    keys += [("front", f"{section}.{key}", val)
             for section, vals in cli.DEFAULTS.items()
             if isinstance(vals, dict) for key, val in vals.items()]
    keys.append(("front", "experiment.name", "front"))
    keys += [(experiment, f"experiment.{key}", val)
             for experiment, vals in cli.EXPERIMENT_KEYS.items()
             for key, val in vals.items()]
    rows = []
    for experiment, path, val in keys:
        *sections, key = path.split(".")
        config = {f"{key}x": val}
        for section in reversed(sections):
            config = {section: config}
        rows.append(pytest.param(experiment, config, f"{path}x",
                                 id=f"{path}x"))
    return rows


class TestSchema:
    @pytest.mark.parametrize("experiment, config, path", _misspelt_keys() + [
        # misspellings that an open schema runs silently on the defaults
        pytest.param("validate", {"time": {"cadance": 2.0}}, "time.cadance",
                     id="cadance"),
        pytest.param("validate", {"time": {"cadence": 1.0}}, "time.cadence",
                     id="cadence"),
        pytest.param("validate", {"kernel": {"sigmaa": 2.0}},
                     "kernel.sigmaa", id="sigmaa"),
        pytest.param("validate", {"grid": {"nn": 5}}, "grid.nn", id="nn"),
        pytest.param("validate", {"kernel": {"family": "bump",
                                             "sigma": 2.0}},
                     "kernel.sigma", id="bump_sigma"),
        # the grid sets the kernel's spacing: the open kernel section takes
        # a family's parameter, not a spacing of its own
        pytest.param("front", {"kernel": {"spacing": 0.05}},
                     "kernel.spacing", id="stale_spacing"),
        pytest.param("validate", {"outputt": {"dir": "x"}}, "outputt",
                     id="outputt"),
        pytest.param("sweep", {"experiment": {"workers": 1, "cases": [
            {"experiment": {"name": "validate"}, "grid": {"nn": 5}}]}},
                     "sweep case 0: unknown config key 'grid.nn'",
                     id="sweep_case_nn"),
    ])
    def test_unnamed_key_is_config_error(self, runner, tmp_path,
                                         monkeypatch, experiment, config,
                                         path):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the config was checked")

        for name in ("solve_traveling_wave", "build_approx_front",
                     "comparison_test"):
            monkeypatch.setattr(cli, name, solve)
        out = tmp_path / "out"
        result = runner.invoke(main, [experiment, "--config",
                                      _write_cfg(tmp_path, config),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert path in result.output
        assert not list(out.glob("**/summary.json"))

    @pytest.mark.parametrize("text", [
        yaml.safe_dump({**cli.DEFAULTS, "kernel": {**cli.DEFAULTS["kernel"],
                                                   "sigma": 1.0}}),
        "kernel: {family: bump, a: 0.2}\n",
        # PyYAML reads 1e-7 (no dot) as a string, which is a number here
        "kernel: {tail_tolerance: 1e-7}\n",
    ], ids=["spelled_out_defaults", "bump_a", "string_tail_tolerance"])
    def test_named_keys_run(self, runner, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        result = runner.invoke(main, ["validate", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        kernel = {**cli.DEFAULTS["kernel"], **yaml.safe_load(text)["kernel"]}
        kernel["tail_tolerance"] = float(kernel["tail_tolerance"])
        assert load_config(str(path))["kernel"] == kernel


class TestFrontMemo:
    def test_front_and_tails_share_one_build(self, tmp_path, monkeypatch):
        cfg = load_config(None)
        cfg["grid"].update(x_min=-30.0, x_max=30.0, n=1201)
        cfg["time"].update(s=-10.0, t_end=20.0)
        build, builds = cli.build_approx_front, []
        solve, solves = cli.solve_traveling_wave, []
        build_kernel, kernels = cli.build_kernel, []

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def counted_kernel(*args, **kwargs):
            kernels.append(1)
            return build_kernel(*args, **kwargs)

        monkeypatch.setattr(cli, "build_approx_front", counted)
        monkeypatch.setattr(cli, "solve_traveling_wave", counted_solve)
        monkeypatch.setattr(cli, "build_kernel", counted_kernel)
        cli._front_memo.cache_clear()
        kern, _, wave, run = cli._front_run(cfg)
        assert not (kern.samples.flags.writeable
                    or kern.derivative_samples.flags.writeable)
        assert not wave.phi.flags.writeable
        assert not (run.track.flags.writeable or run.speeds.flags.writeable)
        before = [(s.u.copy(), s.w.copy()) for s in run.snapshots]
        for name in ("front", "tails"):
            assert cli._run_experiment(name, cfg, tmp_path / name,
                                       quiet=True) == 0
        assert len(builds) == 1
        assert len(solves) == 2   # the min and the max wave, once each
        assert len(kernels) == 1  # one kernel per problem
        for snap, (u, w) in zip(run.snapshots, before):
            assert np.array_equal(snap.u, u) and np.array_equal(snap.w, w)

        # the other order of the benchmark's diagnostics cases: tails then
        # front build one more kernel and front and solve two more waves
        cli._front_memo.cache_clear()
        assert cli._run_experiment("tails", cfg, tmp_path / "fresh",
                                   quiet=True) == 0
        assert len(builds) == 2
        assert len(solves) == 3   # the fresh front solves its min wave again
        for name in ("tails.csv", "summary.json"):
            assert ((tmp_path / "tails" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
        assert cli._run_experiment("front", cfg, tmp_path / "front_after",
                                   quiet=True) == 0
        assert (len(builds), len(solves), len(kernels)) == (2, 4, 2)


    def test_wave_window_rounds_its_node_count(self):
        # 120 / (100 / 1190) is 1427.9999999999998 in floating point; the
        # wave window needs 1429 nodes at the kernel's spacing, not 1428
        cfg = load_config(None)
        cfg["grid"]["n"] = 1191
        kern, f, _ = cli.build_problem(cfg)
        assert kern.spacing == 0.08403361344537816
        wave = cli._wave(kern, min_slice(f))
        assert wave.x.size == 1429
        assert wave.residual_norm <= 1e-8


#: share of its own margin by which halving time.dt may move a `front` gate
STEP_BUDGET = 1e-4


def _front_summary(out_dir, *edits):
    """`front` summary at the default config with each (section, key,
    value) of edits set."""
    cfg = load_config(None)
    for section, key, value in edits:
        cfg[section][key] = value
    assert cli._run_experiment("front", cfg, out_dir, quiet=True) == 0
    return json.loads((out_dir / "summary.json").read_text())


def _margins(s, envelope=None):
    """How far each gate of the `front` summary s stands from failing,
    against the speed envelope (lo, hi), by default the summary's own."""
    lo, hi = envelope or (s["envelope_lo"], s["envelope_hi"])
    return {"speed_min": s["speed_min"] - lo,
            "speed_max": hi - s["speed_max"],
            "width_max": 2.0 * s["width_median"] - s["width_max"]}


def _moved_gates(coarse, fine):
    """The gates whose margin moves by more than STEP_BUDGET of itself
    from the coarse margins to the fine ones."""
    return {gate: (margin, abs(margin - fine[gate]))
            for gate, margin in coarse.items()
            if abs(margin - fine[gate]) > STEP_BUDGET * margin}


def _unconverged_gates(tmp_path):
    """The `front` gates that move when the default time.dt halves."""
    dt = load_config(None)["time"]["dt"]
    return _moved_gates(
        _margins(_front_summary(tmp_path / "dt", ("time", "dt", dt))),
        _margins(_front_summary(tmp_path / "half_dt",
                                ("time", "dt", 0.5 * dt))))


def _private_front_memo(monkeypatch):
    """A front memo of the test's own, so no sabotaged front outlives it."""
    monkeypatch.setattr(cli, "_front_memo", functools.lru_cache(
        maxsize=4)(cli._front_memo.__wrapped__))


class TestDefaultStep:
    def test_default_dt_is_converged(self, tmp_path):
        assert _unconverged_gates(tmp_path) == {}

    def test_first_order_step_is_not_converged(self, tmp_path, monkeypatch):
        # forward Euler in place of RK4: its error halves with dt, where
        # RK4's falls 16-fold, and the check must see that
        def euler(self, state, dt):
            # one lane, packed in rows [u_left | u | u_right] and, with the
            # co-state, [0 | w | 0] like RK4's stages
            y = self._pack(state)
            y = y + dt * self._rhs(state.t, y)
            return state.with_(
                t=state.t + dt, u=y[0, 1:-1],
                w=None if state.w is None else y[1, 1:-1],
                u_left=float(y[0, 0]), u_right=float(y[0, -1]))

        monkeypatch.setattr(Stepper, "step", euler)
        _private_front_memo(monkeypatch)
        unconverged = _unconverged_gates(tmp_path)
        assert {"speed_min", "speed_max"} <= unconverged.keys()


def _grid_unconverged_gates(tmp_path):
    """The `front` gates that move when the default grid spacing (0.05,
    2001 nodes, which sets the kernel's) halves on the same window; the h/2
    front is the one that TestSteepnessGrid reads through the memo.

    Both runs are measured against the coarse run's speed envelope.  The
    envelope is 0.98 c*(f_min) and 1.02 c*(f_max) from the wave solves,
    whose own O(h^2) error moves c*(f_max) by 1.4e-5 of itself at this
    halving (1.2e-4 of the speed_max margin): that is the waves' grid
    convergence, not the front's.
    """
    coarse = _front_summary(tmp_path / "h", ("grid", "n", 2001))
    fine = _front_summary(tmp_path / "half_h", ("grid", "n", 4001))
    envelope = (coarse["envelope_lo"], coarse["envelope_hi"])
    return _moved_gates(_margins(coarse), _margins(fine, envelope))


class TestGridHalving:
    def test_default_grid_is_converged(self, tmp_path):
        assert _grid_unconverged_gates(tmp_path) == {}

    def test_linear_crossing_is_not_converged(self, tmp_path, monkeypatch):
        # the chord's root ripples by O(h) with the front's place in its
        # cell, where the PCHIP root's error falls at least like h^2
        for module in (evolve, fronts):
            monkeypatch.setattr(module, "locate_level", linear_crossing)
        _private_front_memo(monkeypatch)
        unconverged = _grid_unconverged_gates(tmp_path)
        assert {"speed_min", "speed_max"} <= unconverged.keys()


def _steepness_summary(out_dir, n):
    """`steepness` summary at the default config on the default window,
    with the given node count, which sets the kernel's spacing."""
    cfg = load_config(None)
    cfg["grid"]["n"] = n
    assert cli._run_experiment("steepness", cfg, out_dir, quiet=True) == 0
    return json.loads((out_dir / "summary.json").read_text())


class TestSteepnessGrid:
    def test_halving_h_moves_no_steepness_gate(self, tmp_path):
        coarse = _steepness_summary(tmp_path / "h", 2001)
        fine = _steepness_summary(tmp_path / "half_h", 4001)
        # the infimum over exactly [-1, 1] is J(1) on either grid
        assert fine["bound_constant"] == pytest.approx(
            coarse["bound_constant"], rel=1e-6)
        for gate in ("bound_margin_min", "alpha_m"):
            assert (abs(fine[gate] - coarse[gate])
                    <= STEP_BUDGET * coarse[gate]), gate


def _serve_edited_front(monkeypatch, edit):
    """Serve the CLI the memoized default front with its snapshots passed
    through edit(snapshots, s)."""
    cfg = load_config(None)
    kern, f, wave, run = cli._front_run(cfg)
    snaps = edit(run.snapshots, cfg["time"]["s"])
    edited = replace(run, trajectory=replace(run.trajectory,
                                             snapshots=snaps))
    monkeypatch.setattr(cli, "_front_run",
                        lambda cfg: (kern, f, wave, edited))


def _steepness_of_edited_front(runner, tmp_path, monkeypatch, edit):
    """`frontlab steepness` at the defaults on the default front, with its
    snapshots passed through edit(snapshots, s)."""
    _serve_edited_front(monkeypatch, edit)
    return runner.invoke(main, ["steepness", "--out", str(tmp_path)])


class TestSteepnessGates:
    def test_flat_front_is_not_uniformly_steep(self, runner, tmp_path,
                                               monkeypatch):
        # w = 0 on every snapshot that alpha_m reads (t >= s + 5)
        def flatten(snaps, s):
            return [snap.with_(w=np.zeros_like(snap.w))
                    if snap.t >= s + 5.0 else snap for snap in snaps]

        result = _steepness_of_edited_front(runner, tmp_path, monkeypatch,
                                            flatten)
        assert result.exit_code == 1, result.output
        assert "not uniformly steep" in result.output

    def test_flattened_last_snapshot_violates_the_bound(
            self, runner, tmp_path, monkeypatch):
        # w scaled by 0.01 on the last snapshot: still steep, but far less
        # than the bound from its predecessor allows
        def flatten_last(snaps, s):
            return snaps[:-1] + [snaps[-1].with_(w=0.01 * snaps[-1].w)]

        result = _steepness_of_edited_front(runner, tmp_path, monkeypatch,
                                            flatten_last)
        assert result.exit_code == 1, result.output
        assert "pointwise steepness bound violated" in result.output

    def test_each_pair_is_held_to_its_own_spacing(self, runner, tmp_path,
                                                  monkeypatch):
        # time.t_end - time.s is a whole number, so every pair is
        # SNAPSHOT_EVERY = 1 apart and held to C(1)
        held, check = {}, cli.check_steepness_bound

        def record(before, after, const, x):
            held[before.t, after.t] = const
            return check(before, after, const, x)

        monkeypatch.setattr(cli, "check_steepness_bound", record)
        result = runner.invoke(main, ["steepness",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        kern, f, _ = cli.build_problem(load_config(None))
        whole = cli.steepness_bound_constant(kern, f.lipschitz_bound(),
                                             dt=1.0)[0]
        assert whole == pytest.approx(0.02178, abs=5e-6)
        assert set(held.values()) == {whole}
        assert [after - before for before, after in held] == pytest.approx(
            [1.0] * 85)  # the pairs from t = s + 5 = -25 to t_end = 60

    def test_window_follows_the_kernel_width(self, runner, tmp_path,
                                             monkeypatch):
        # at sigma 0.1, w on X +- 5 is at rounding level (-1.2e-16) at its
        # largest; on X +- 5 sigma it reads the front
        half_widths, steepness = set(), cli.steepness

        def record(field, center, half_width):
            half_widths.add(half_width)
            return steepness(field, center, half_width)

        monkeypatch.setattr(cli, "steepness", record)
        out = tmp_path / "out"
        path = _write_cfg(tmp_path, {"kernel": {"sigma": 0.1}})
        result = runner.invoke(main, ["steepness", "--config", path,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert list(half_widths) == [pytest.approx(0.5)]
        assert json.loads((out / "summary.json").read_text())["alpha_m"] > 0


class TestTails:
    def test_offsets_follow_the_kernel_width(self, runner, tmp_path):
        # at sigma 0.1 the fit window X +- 8 held fewer than 8 points of the
        # magnitude band; from X +- 8 sigma the rate is 1/sigma the default's
        rates = {}
        for sigma in (1.0, 0.1):
            out = tmp_path / str(sigma)
            path = _write_cfg(tmp_path, {"kernel": {"sigma": sigma}})
            result = runner.invoke(main, ["tails", "--config", path,
                                          "--out", str(out), "--quiet"])
            assert result.exit_code == 0, result.output
            summary = json.loads((out / "summary.json").read_text())
            rates[sigma] = sigma * summary["right_rate"]
        assert rates[0.1] == pytest.approx(rates[1.0], rel=1e-3)


class TestFrontSummary:
    def test_deep_seed_reads_the_fixed_span(self, tmp_path):
        # at s = -60 the settled snapshots are those at t >= -10, as at the
        # default s = -30, not those at t >= s + TRANSIENT = -40
        out = tmp_path / "deep"
        summary = _front_summary(out, ("time", "s", -60.0))
        t, _, speed, width = np.loadtxt(out / "front_track.csv",
                                        delimiter=",", skiprows=1).T
        span = t >= -10.0
        assert t[0] == -60.0 and span.sum() == 71
        assert summary["speed_max"] == np.max(speed[span])
        assert summary["width_max"] == np.max(width[span])


THETA = cli.DEFAULTS["reaction"]["theta"]


def _on_last(edit):
    """A snapshot edit that passes the last snapshot through edit."""
    return lambda snaps, s: snaps[:-1] + [edit(snaps[-1])]


def _shifted(dx):
    """The last snapshot's profile moved right by dx: its one-sided speed
    changes by dx per time unit."""
    return _on_last(lambda snap: snap.with_(
        u=profile_interp(snap)(snap.x - dx)))


def _stretched(snap):
    """The profile three times wider about its theta crossing."""
    x0 = locate_level(snap, THETA)
    return snap.with_(u=profile_interp(snap)(x0 + (snap.x - x0) / 3.0))


def _grown_tail(side):
    """The last snapshot's w, beyond 8 of its crossing on one side, made a
    tail that grows outward (inside the fitted magnitude band)."""
    def edit(snap):
        d = snap.x - locate_level(snap, THETA)
        beyond = d >= 8.0 if side == "right" else d <= -8.0
        return snap.with_(w=np.where(beyond, -1e-4 * np.exp(0.01 * abs(d)),
                                     snap.w))
    return _on_last(edit)


def _crafted_decay(rate, r_squared, spread):
    """A stand-in for the asymptotic run: a report with this fitted rate,
    R^2, and spread of its last five best shifts."""
    def run(pair0, *args, **kwargs):
        return AsymptoticReport(
            times=pair0.t + np.arange(5.0), sup_distances=np.full(5, 1e-3),
            shift_series=np.linspace(0.0, spread, 5), fitted_rate=rate,
            r_squared=r_squared)
    return run


def _crafted_sandwich(worst_violation):
    """A stand-in for the stability run: a one-row report whose sandwich
    is violated by worst_violation, beside a 2.4e-5 edge defect."""
    def run(ref0, *args, **kwargs):
        one = np.array([0.0])
        return StabilityReport(
            times=one + ref0.t, envelope_distance=one, q_values=one,
            zeta_minus=one, zeta_plus=one,
            violation_count=int(worst_violation > 0),
            worst_violation=worst_violation, edge_defect=2.4e-5,
            interior_worst_violation=worst_violation)
    return run


def _short_asymptotic(*args, **kwargs):
    """The asymptotic run cut to a horizon of 10: too few of its distances
    fall inside the fitted band, so it fits no rate."""
    return stability.run_asymptotic_experiment(*args,
                                               **{**kwargs, "horizon": 10.0})


#: a sabotage per gate that no other test trips: (experiment, patch, the
#: gate's message), where patch(monkeypatch) edits the memoized default
#: front, stands in for the asymptotic run or cuts it short, so no row
#: evolves longer than a few steps anew.  A row named <gate>_nan trips its
#: gate with a NaN value
GATE_SABOTAGES = {
    "speed_min": ("front", lambda mp: _serve_edited_front(
        mp, _shifted(-0.1)), "interface speed fell below the envelope"),
    "speed_max": ("front", lambda mp: _serve_edited_front(
        mp, _shifted(0.1)), "interface speed rose above the envelope"),
    "width_max": ("front", lambda mp: _serve_edited_front(
        mp, _on_last(_stretched)),
        "interface width is not uniformly bounded"),
    "right_rate": ("tails", lambda mp: _serve_edited_front(
        mp, _grown_tail("right")),
        "right tail decays slower than the kernel bound"),
    "left_rate": ("tails", lambda mp: _serve_edited_front(
        mp, _grown_tail("left")),
        "left tail of the derivative does not decay"),
    "rate": ("asymptotic", lambda mp: mp.setattr(
        cli, "run_asymptotic_experiment", _short_asymptotic),
        "best-shift distance does not decay"),
    "rate_nan": ("asymptotic", lambda mp: mp.setattr(
        cli, "run_asymptotic_experiment",
        _crafted_decay(np.nan, np.nan, 0.0)),
        "best-shift distance does not decay"),
    "r_squared": ("asymptotic", lambda mp: mp.setattr(
        cli, "run_asymptotic_experiment", _crafted_decay(0.01, 0.5, 0.0)),
        "decay is not log-linear"),
    "zeta_star_spread": ("asymptotic", lambda mp: mp.setattr(
        cli, "run_asymptotic_experiment", _crafted_decay(0.01, 0.999, 0.1)),
        "best shift has not settled"),
}


@pytest.mark.parametrize("gate", sorted(GATE_SABOTAGES))
def test_every_gate_can_fail(tmp_path, monkeypatch, gate):
    experiment, sabotage, message = GATE_SABOTAGES[gate]
    sabotage(monkeypatch)
    code = cli._run_experiment(experiment, load_config(None), tmp_path,
                               quiet=True)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == 1 and summary["passed"] == 0
    assert summary["failure"].startswith(message), summary["failure"]


#: the test that trips each gate with no GATE_SABOTAGES row
GATE_TESTS = {
    "all_pass": "TestExitCodes::test_failed_hypothesis_is_check_failure",
    "c_star_max": "TestExitCodes::test_equal_slices_fail_speed_ordering",
    "alpha_m": "TestSteepnessGates::test_flat_front_is_not_uniformly_steep",
    "bound_margin_min":
        "TestSteepnessGates::test_flattened_last_snapshot_violates_the_bound",
    "worst_violation":
        "TestStabilityGate::test_sandwich_budget_ignores_the_edge_defect",
    "min_margin": "TestComparisonBatches::test_crossed_pairs_fail_the_gate",
}

#: why a gate has neither a row nor a test: it cannot fail at the defaults
GATE_VACUOUS = {
    "distance_at_3_over_omega": "reads exactly 0.0 at the defaults: by "
                                "3/omega the shifted band has drifted about "
                                "19 units",
}


def test_every_gate_is_accounted_for(tmp_path, monkeypatch):
    # the gates that one passing default run of each gated experiment
    # registers, with the memoized front and passing stand-ins for the
    # stability and asymptotic runs
    registered, check = {}, cli._check

    def record(summary, gates):
        registered.update((key, experiment) for key, *_ in gates)
        check(summary, gates)

    monkeypatch.setattr(cli, "_check", record)
    monkeypatch.setattr(cli, "run_stability_experiment",
                        _crafted_sandwich(0.0))
    monkeypatch.setattr(cli, "run_asymptotic_experiment",
                        _crafted_decay(0.01, 0.999, 0.0))
    for experiment in sorted(cli.EXPERIMENTS.keys() - {"sweep"}):
        out = tmp_path / experiment
        assert cli._run_experiment(experiment, load_config(None), out,
                                   quiet=True) == 0, experiment
        summary = json.loads((out / "summary.json").read_text())
        keys = [k for k, e in registered.items() if e == experiment]
        assert summary["gates"] == keys, experiment
        # the list, not a suffix, finds them: comparison gates min_margin
        assert set(keys) == {k for k in summary if {
            f"{k}_bound", f"{k}_margin"} <= summary.keys()}
    sabotaged = {row.removesuffix("_nan") for row in GATE_SABOTAGES}
    accounted = sabotaged | GATE_TESTS.keys() | GATE_VACUOUS.keys()
    assert registered.keys() - accounted == set(), "gates nothing trips"
    assert accounted - registered.keys() == set(), "entries of no gate"
    for name in GATE_TESTS.values():
        cls, test = name.split("::")
        assert callable(getattr(globals().get(cls), test, None)), name


class TestCheck:
    @pytest.mark.parametrize("sense", [">", ">=", "<="])
    def test_a_nan_fails_every_sense(self, sense):
        summary = {"value": np.nan}
        with pytest.raises(cli.CheckFailure, match="^value gate$"):
            cli._check(summary, [("value", sense, 0.0, "value gate")])
        assert summary["value_bound"] == 0.0
        assert np.isnan(summary["value_margin"])

    def test_margins_are_recorded_up_to_the_first_failure(self):
        # a value on its bound passes ">=" (and "<="), and fails ">"
        summary = {"a": 2.0, "b": 3.0, "c": 0.0, "d": 9.0}
        with pytest.raises(cli.CheckFailure, match="^c$"):
            cli._check(summary, [("a", ">=", 2.0, "a"), ("b", "<=", 4.0, "b"),
                                 ("c", ">", 0.0, "c"), ("d", "<=", 0.0, "d")])
        assert summary == {"a": 2.0, "b": 3.0, "c": 0.0, "d": 9.0,
                           "a_bound": 2.0, "a_margin": 0.0, "b_bound": 4.0,
                           "b_margin": 1.0, "c_bound": 0.0, "c_margin": 0.0,
                           "gates": ["a", "b", "c"]}


class TestExitCodes:
    def test_validate_ok(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["validate", "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] == 1
        assert summary["h_over_width"] == 0.05  # the defaults' grid, sigma 1
        assert (out / "manifest.json").exists()
        assert result.output == f"validate: ok ({out})\n"  # no report text

    def test_validate_reports_through_its_summary_alone(self, tmp_path):
        assert cli._run_experiment("validate", load_config(None), tmp_path,
                                   quiet=True) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "summary.json"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert {"sup_ft", "sup_fuu", "int_abs_J_prime", "c_fu",
                "beta_tilde"} <= summary.keys()
        verdicts = {k for k in summary if k.startswith("h_")} - {
            "h_over_width"}
        assert verdicts == {"h_H1_symmetry", "h_H1_nonnegative",
                            "h_H1_unit_mass", "h_H2_zero_below_theta",
                            "h_H2_zero_at_one", "h_H2_envelope",
                            "h_H2_negative_above_one", "h_H3_bounded_fuu",
                            "h_H4_decay_slope", "h_H4_zero_below_zero"}
        assert all(summary[k] == 1 for k in verdicts)

    def test_missing_config_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--config",
                                      str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_unknown_experiment_is_usage_error(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2
        assert "invalid choice: 'frobnicate'" in result.output

    @pytest.mark.parametrize("args, named", [
        ([], "the following arguments are required: experiment"),
        (["validate", "--seed", "abc"], "invalid int value: 'abc'"),
    ], ids=["no_experiment", "seed_abc"])
    def test_usage_error_names_the_value(self, runner, args, named):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert named in result.output

    def test_help_exits_0(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0, result.output
        assert "{asymptotic,comparison," in result.output
        assert "Random seed (overrides config)." in result.output

    @pytest.mark.parametrize("experiment", ["validate", "comparison"])
    @pytest.mark.parametrize("n", [3, 11])  # h = 50 and h = 10 against sigma 1
    def test_grid_coarser_than_the_kernel_is_config_error(
            self, runner, tmp_path, monkeypatch, experiment, n):
        def solve(*args, **kwargs):
            raise AssertionError("solved on a grid coarser than the kernel")

        monkeypatch.setattr(cli, "comparison_test", solve)
        cfg = _write_cfg(tmp_path, {"grid": {"n": n}})
        out = tmp_path / "out"
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert (f"grid spacing {100 / (n - 1):g} exceeds the kernel's "
                "width 1") in result.output
        assert not (out / "summary.json").exists()

    def test_unstable_dt_is_config_error(self, runner, tmp_path):
        # the RK4 cap is 0.7355 at the defaults
        cfg = _write_cfg(tmp_path, {"time": {"dt": 1.0}})
        result = runner.invoke(main, ["validate", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "dt=1.0 lies outside (0, 0.7355]" in result.output

    def test_nonpositive_dt_is_config_error(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {"time": {"dt": 0.0}})
        result = runner.invoke(main, ["validate", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "dt=0.0 lies outside" in result.output

    @pytest.mark.parametrize("experiment, time, message", [
        # every run snapshots on whole time units
        ("steepness", {"dt": 0.03},
         "the snapshot interval=1 is not a whole multiple of time.dt=0.03"),
        ("front", {"s": -10.01, "t_end": 20.0},
         "time.t_end - time.s=30.01 is not a whole multiple of the snapshot "
         "interval=1"),
        # the run ends on a snapshot, so every steepness pair is 1 apart
        ("steepness", {"t_end": 40.2},
         "time.t_end - time.s=70.2 is not a whole multiple of the snapshot "
         "interval=1"),
        ("front", {"s": -10.0, "t_end": 5.0},
         "time.t_end=5 lies before time.s + 20"),
        # the front is normalized at t = 0, which must be a snapshot time
        ("front", {"s": -10.5, "t_end": 19.5},
         "-time.s=10.5 is not a whole multiple of the snapshot interval=1"),
        # the paired snapshots, 2 apart, fall on whole steps of a time.dt
        # that divides 1
        ("stability", {"s": -10.0, "t_end": 11.0, "dt": 0.03},
         "the snapshot interval=1 is not a whole multiple of time.dt=0.03"),
        ("asymptotic", {"s": -10.0, "t_end": 11.0, "dt": 0.03},
         "the snapshot interval=1 is not a whole multiple of time.dt=0.03"),
        # the bound pairs each snapshot at t >= s + 5 with the next: the
        # settled run, t_end >= s + 20, gives at least 16 of them
        ("steepness", {"s": -20.0, "t_end": -1.0},
         "time.t_end=-1 lies before time.s + 20"),
        # the front is normalized at t = 0, so every run reaches it, even
        # one that solves no front
        ("validate", {"s": -30.0, "t_end": -5.0},
         "time.t_end=-5 lies before t = 0"),
        ("wave", {"s": -30.0, "t_end": -5.0},
         "time.t_end=-5 lies before t = 0"),
        ("comparison", {"s": -30.0, "t_end": -5.0},
         "time.t_end=-5 lies before t = 0"),
        ("front", {"s": -30.0, "t_end": -5.0},
         "time.t_end=-5 lies before t = 0"),
    ], ids=["off_cadence", "off_step_run", "fractional_run", "short_run",
            "off_cadence_seed", "stability_off_step_pairs",
            "asymptotic_off_step_pairs", "steepness_one_late_snapshot",
            "validate_before_t0", "wave_before_t0", "comparison_before_t0",
            "front_before_t0"])
    def test_time_section_is_checked_before_any_solve(
            self, runner, tmp_path, monkeypatch, experiment, time, message):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the time section was "
                                 "checked")

        monkeypatch.setattr(cli, "solve_traveling_wave", solve)
        monkeypatch.setattr(cli, "build_approx_front", solve)
        cfg = _write_cfg(tmp_path, {
            "time": time, "grid": {"x_min": -30.0, "x_max": 30.0,
                                   "n": 1201}})
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_unknown_reaction_key_is_config_error(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {"reaction": {"bogus": 1}})
        result = runner.invoke(main, ["validate", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "bogus" in result.output

    @pytest.mark.parametrize("experiment, key", [
        ("stability", "t0"),
        ("asymptotic", "horizon"),
        ("wave", "tol"),
        ("steepness", "half_width"),
    ])
    def test_unread_experiment_key_is_config_error(self, runner, tmp_path,
                                                   monkeypatch, experiment,
                                                   key):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the experiment keys were "
                                 "checked")

        monkeypatch.setattr(cli, "_front_run", solve)
        monkeypatch.setattr(cli, "solve_traveling_wave", solve)
        cfg = _write_cfg(tmp_path, {"experiment": {key: 1.0}})
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"unknown config key 'experiment.{key}'" in result.output

    def test_narrow_wave_window_is_config_error(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        result = runner.invoke(main, ["wave", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "must span at least 80" in result.output

    @pytest.mark.parametrize("experiment, patch", [
        ("validate", {"grid": {"n": [1]}}),
        ("front", {"grid": {"n": [1]}}),
        ("comparison", {"experiment": {"pairs": [1]}}),
    ])
    def test_non_numeric_value_is_config_error(self, runner, tmp_path,
                                               experiment, patch):
        cfg = _write_cfg(tmp_path, patch)
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "is not a number" in result.output

    @pytest.mark.parametrize("experiment, patch", [
        ("comparison", {"experiment": {"pairs": 2.7}}),
        ("validate", {"grid": {"n": 1201.9}}),
    ])
    def test_fractional_integer_is_config_error(self, runner, tmp_path,
                                                experiment, patch):
        cfg = _write_cfg(tmp_path, patch)
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "is not an integer" in result.output

    def test_integral_float_is_an_integer(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {"experiment": {"pairs": 2.0}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["comparison", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "summary.json").read_text())["pairs"] == 2

    def test_null_value_is_config_error(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {"grid": {"n": None}})
        result = runner.invoke(main, ["front", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "null" in result.output

    def test_unknown_initial_shape_is_config_error(self, runner, tmp_path,
                                                   monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("front built before the shape was checked")

        monkeypatch.setattr(cli, "_front_run", build)
        cfg = _write_cfg(tmp_path, {"experiment": {"initial": "bogus"}})
        result = runner.invoke(main, ["asymptotic", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "unknown initial shape 'bogus'" in result.output

    def test_solver_breakdown_is_solver_failure(self, runner, tmp_path,
                                                monkeypatch):
        def breakdown(*args, **kwargs):
            raise SolverError("Newton polish did not converge within the cap")

        monkeypatch.setattr(cli, "solve_traveling_wave", breakdown)
        result = runner.invoke(main, ["wave",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "solver failure: Newton polish" in result.output

    @pytest.mark.parametrize("experiment, patch, c_min, message", [
        # a measured c_min of 1e-9 gives the kernel's bound on the tail rate
        # no positive root, and admits no alpha of the stability scan
        ("tails", {}, 1e-9, "no positive decay rate"),
        ("stability", {}, 1e-9, "no admissible alpha in scan"),
        # in a window of 10 the seed's tails are cut, so a shifted seed no
        # longer moves the front
        ("front", {"grid": {"x_min": -5.0, "x_max": 5.0, "n": 201}}, None,
         "seed shift no longer moves the front"),
    ], ids=["tails_no_decay_rate", "stability_no_alpha", "front_tight_window"])
    def test_post_solve_breakdown_is_solver_failure(
            self, runner, tmp_path, monkeypatch, experiment, patch, c_min,
            message):
        if c_min is not None:
            for module in (cli, stability):
                monkeypatch.setattr(module, "measured_c_min",
                                    lambda run: c_min)
        cfg = _write_cfg(tmp_path, patch)
        out = tmp_path / "out"
        result = runner.invoke(main, [experiment, "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"solver failure: {message}" in result.output
        assert not (out / "summary.json").exists()

    def test_one_node_kernel_is_not_an_internal_error(self, runner,
                                                      tmp_path):
        # bump a = 0.05 at spacing 0.05 has half_points 1, so the coarse
        # kernel of the two-level solve is one node wide and the band needs
        # rows for the advection diagonals beyond the kernel's
        cfg = _write_cfg(tmp_path, {"kernel": {"family": "bump", "a": 0.05}})
        result = runner.invoke(main, ["wave", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code in (0, 3), result.output

    @pytest.mark.parametrize("kernel", [
        {"family": "gaussian", "sigma": 0.1},
        {"family": "gaussian", "sigma": 0.05},
        {"family": "bump", "a": 0.5},
        {"family": "bump", "a": 0.2},
        {"family": "bump", "a": 0.15},
    ], ids=["gaussian_0.1", "gaussian_0.05", "bump_0.5", "bump_0.2",
            "bump_0.15"])
    def test_narrow_kernel_solves_both_waves(self, runner, tmp_path, kernel):
        # the Newton start scales with the stencil's rms width; from the
        # width 2 and speed 0.1 fitted to sigma = 1, all but bump a = 0.5
        # exited 3
        cfg = _write_cfg(tmp_path, {"kernel": kernel})
        out = tmp_path / "out"
        result = runner.invoke(main, ["wave", "--config", cfg,
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c_star_max"] > summary["c_star_min"] > 0.0

    def test_programming_error_is_internal_error(self, runner, tmp_path,
                                                 monkeypatch):
        # exit 1 is kept for a failed theorem check
        def broken(cfg, art):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(cli.EXPERIMENTS, "validate", broken)
        result = runner.invoke(main, ["validate",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == cli.EXIT_INTERNAL == 4
        assert "TypeError: unsupported operand" in result.stderr

    def test_front_leaving_the_window_is_config_error(self, runner,
                                                      tmp_path):
        # at about 0.14 per time unit the front leaves [-50, 50] before 400
        cfg = _write_cfg(tmp_path, {"time": {"t_end": 400.0}})
        result = runner.invoke(main, ["front", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "time.t_end=400" in result.output
        assert "grid [-50, 50]" in result.output

    def test_failed_hypothesis_is_check_failure(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {"reaction": {"theta_tilde": 0.5}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["validate", "--config", cfg,
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 1, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] == 0
        assert "H4_decay_slope at t=" in summary["failure"]

    def test_equal_slices_fail_speed_ordering(self, runner, tmp_path):
        # a constant a(t) makes f_min = f_max, so the two speeds coincide
        cfg = _write_cfg(tmp_path, {
            "reaction": {"a_amp": 0.0},
            "grid": {"x_min": -40.0, "x_max": 40.0, "n": 1601}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["wave", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "speed ordering" in json.loads(
            (out / "summary.json").read_text())["failure"]

    @pytest.mark.parametrize("patch, message", [
        ({"experiment": {"pairs": 0}},
         "experiment.pairs=0 must be at least 1"),
        # every pair runs to cli.COMPARISON_T_END: a t_end of its own, on
        # the steps or off them, is a stale key
        ({"experiment": {"t_end": 3.01}},
         "unknown config key 'experiment.t_end'"),
        # the comparison's snapshots, one time unit apart, are no whole
        # number of steps
        ({"experiment": {"pairs": 2}, "time": {"dt": 0.03}},
         "snapshot interval=1 is not a whole multiple of time.dt=0.03"),
    ], ids=["no_pairs", "off_step_t_end", "off_step_snapshots"])
    def test_comparison_keys_are_checked_before_any_pair(
            self, runner, tmp_path, monkeypatch, patch, message):
        def pair(*args, **kwargs):
            raise AssertionError("a pair ran before the keys were checked")

        monkeypatch.setattr(cli, "comparison_test", pair)
        cfg = _write_cfg(tmp_path, patch)
        result = runner.invoke(main, ["comparison", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_small_comparison_ok(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 3},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["comparison", "--config", cfg,
                                      "--out", str(out), "--seed", "5",
                                      "--quiet"])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pairs"] == 3
        assert summary["min_margin"] >= -1e-8


class TestStabilityGate:
    def test_sandwich_budget_ignores_the_edge_defect(self, tmp_path,
                                                     monkeypatch):
        # a 5e-6 violation fails the flat 1e-6 budget, though it lies well
        # inside the 2.4e-5 edge defect that is reported beside it
        monkeypatch.setattr(cli, "run_stability_experiment",
                            _crafted_sandwich(5e-6))
        code = cli._run_experiment("stability", load_config(None),
                                   tmp_path, quiet=True)
        assert code == 1
        failure = json.loads((tmp_path / "summary.json").read_text())
        assert "sandwich violated" in failure["failure"]


class TestComparisonBatches:
    CONFIG = {"experiment": {"pairs": 11},
              "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}}

    def _run(self, runner, tmp_path):
        """(the CLI's result at seed 5, the config it ran)."""
        path = _write_cfg(tmp_path, self.CONFIG)
        result = runner.invoke(main, ["comparison", "--config", path,
                                      "--out", str(tmp_path / "out"),
                                      "--seed", "5"])
        return result, cli.load_config(path)

    def test_batches_match_a_per_pair_loop(self, runner, tmp_path):
        # 11 pairs: one full batch of COMPARISON_BATCH and a partial one
        assert 11 % cli.COMPARISON_BATCH != 0
        result, cfg = self._run(runner, tmp_path)
        assert result.exit_code == 0, result.output
        kern, f, grid = cli.build_problem(cfg)
        rng = np.random.default_rng(5)
        rows = ["pair,min_margin\n"]
        for i in range(11):
            center = rng.uniform(-5.0, 5.0)
            width = rng.uniform(0.5, 4.0)
            lo = smoothed_step(grid, center=center, width=width)
            bump = rng.uniform(0.0, 0.3) * np.exp(
                -((grid.x - rng.uniform(-10.0, 10.0)) / 4.0) ** 2)
            hi = lo.with_(u=np.clip(lo.u + bump, 0.0, 1.0))
            (margin,) = comparison_test(lo, hi, kern, f,
                                        cli.COMPARISON_T_END,
                                        cfg["time"]["dt"])
            rows.append("%d,%.17g\n" % (i, margin))
        assert ((tmp_path / "out" / "comparison.csv").read_text()
                == "".join(rows))

    def test_crossed_pairs_fail_the_gate(self, runner, tmp_path,
                                         monkeypatch):
        # each pair's lanes swapped, so the margin reads u - v
        pair = stability._pair
        monkeypatch.setattr(stability, "_pair",
                            lambda ref, sol: pair(sol, ref))
        result, _ = self._run(runner, tmp_path)
        assert result.exit_code == 1, result.output
        assert "comparison principle violated" in result.output

    def test_bytes_do_not_depend_on_the_cpu_count(self, runner, tmp_path,
                                                   monkeypatch):
        # one CPU runs the 2 batches in this process, two in 2 workers
        blobs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            run_dir = tmp_path / str(len(cpus))
            run_dir.mkdir()
            result, _ = self._run(runner, run_dir)
            assert result.exit_code == 0, result.output
            blobs.append((run_dir / "out" / "comparison.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_a_worker_breakdown_is_a_solver_failure(self, runner, tmp_path,
                                                    monkeypatch):
        def breakdown(*args):
            raise SolverError("lanes blew up")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "comparison_test", breakdown)
        result, _ = self._run(runner, tmp_path)
        assert result.exit_code == 3, result.output
        assert "solver failure: lanes blew up" in result.output

    def test_pool_forks_only_outside_a_worker(self, monkeypatch):
        assert set(cli._pool_map(_pid, [0, 1], 2)).isdisjoint({os.getpid()})
        monkeypatch.setattr(multiprocessing, "parent_process", object)
        assert cli._pool_map(_pid, [0, 1], 2) == [os.getpid()] * 2


def _pid(_):
    """The pid of the process that runs it."""
    return os.getpid()


class TestWriteCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        cols = [np.arange(-2, 4), np.array([3, -7, 2**60, 0, 1, -1]),
                np.array([0.1, -0.0, np.nan, 1e300, -2.5e-310, 1 / 3]),
                np.array([-0.0, 0.0, -np.nan, np.inf, -np.inf, -1.5]),
                np.array([0.1, -0.0, 2.5, np.nan, 7.0, -3.25],
                         dtype=np.float32)]
        art = cli.Artifacts(tmp_path, {}, quiet=True)
        art.write_csv("t.csv", ["a", "b", "c", "d", "e"], cols)
        old = "a,b,c,d,e\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in zip(*cols))
        assert (tmp_path / "t.csv").read_bytes() == old.encode()
        assert b"-0," in (tmp_path / "t.csv").read_bytes()


class TestDeterminism:
    def test_csv_bytes_reproducible(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 2},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, ["comparison", "--config", cfg,
                                          "--out", str(out), "--seed", "7",
                                          "--quiet"])
            assert result.exit_code == 0, result.output
            blobs.append((out / "comparison.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_recorded_in_manifest(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 2},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        hashes = []
        for seed in ("7", "8"):
            out = tmp_path / ("s" + seed)
            result = runner.invoke(main, ["comparison", "--config", cfg,
                                          "--out", str(out), "--seed", seed,
                                          "--quiet"])
            assert result.exit_code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            hashes.append(manifest["config_sha256"])
        assert hashes[0] != hashes[1]


class TestManifest:
    def test_hashes_match_files(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["validate", "--out", str(out),
                                      "--quiet"])
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"], "manifest lists no artifacts"
        for name, digest in manifest["files"].items():
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest
        assert "summary.json" in manifest["files"]
        assert manifest["versions"]["python"]
        assert set(manifest["versions"]) == {"python", "numpy", "scipy",
                                             "pyyaml", "frontlab"}
        assert manifest["versions"]["pyyaml"] == yaml.__version__
        assert manifest["versions"]["frontlab"] == frontlab.__version__


    def test_versions_match_importlib_metadata(self, tmp_path, monkeypatch):
        # read off the dist-info directory names on sys.path
        assert (cli._dist_version("scipy")
                == importlib.metadata.version("scipy"))
        # with no dist-info directory there, importlib.metadata answers
        monkeypatch.setattr(sys, "path", [str(tmp_path)])
        monkeypatch.setattr(importlib.metadata, "version",
                            lambda name: "from metadata")
        assert cli._dist_version("scipy") == "from metadata"

    def test_versions_are_read_once_per_process(self, runner, tmp_path,
                                                monkeypatch):
        # importlib.metadata.version takes about 10 ms a call
        calls, version = [], importlib.metadata.version
        monkeypatch.setattr(importlib.metadata, "version",
                            lambda name: calls.append(name) or version(name))
        cli._versions.cache_clear()
        cfg = _write_cfg(tmp_path, {"experiment": {"workers": 1, "cases": [
            {"experiment": {"name": "validate"}}] * 2}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 0, result.output
        assert len(calls) <= 2, calls
        versions = [json.loads((d / "manifest.json").read_text())["versions"]
                    for d in (out, out / "case_000", out / "case_001")]
        assert versions[0] == versions[1] == versions[2]


class TestSweep:
    def test_runs_cases_in_subdirs(self, runner, tmp_path):
        # 9 pairs: 2 comparison batches inside a sweep worker
        cfg = _write_cfg(tmp_path, {
            "experiment": {"workers": 2, "cases": [
                {"experiment": {"name": "validate"}},
                {"experiment": {"name": "comparison", "pairs": 9}},
            ]},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 0, result.output
        assert (out / "sweep.csv").exists()
        for i in range(2):
            case = out / f"case_{i:03d}"
            summary = json.loads((case / "summary.json").read_text())
            assert summary["passed"] == 1

    def test_sweep_without_cases_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_are_checked_before_any_runs(self, runner, tmp_path,
                                                 workers):
        cfg = _write_cfg(tmp_path, {"experiment": {
            "workers": workers,
            "cases": [{"experiment": {"name": "validate"}}]}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert (f"experiment.workers={workers} must be at least 1"
                in result.output)
        assert not (out / "case_000").exists()

    @pytest.mark.parametrize("cases, message", [
        ([{"experiment": {"name": "validate"}},
          {"experiment": {"name": "bogus"}}],
         "sweep case 1: 'bogus' is not a non-sweep experiment"),
        ([{"experiment": {"name": "sweep"}}],
         "sweep case 0: 'sweep' is not a non-sweep experiment"),
        ([5], "sweep case 0: 5 is not a mapping"),
        ([{"experiment": "validate"}],
         "sweep case 0: config section 'experiment' is not a mapping"),
        ({"a": 1}, "config value 'experiment.cases' is not a list"),
    ], ids=["unknown_name", "nested_sweep", "number", "flat_experiment",
            "mapping"])
    def test_cases_are_checked_before_any_runs(self, runner, tmp_path,
                                               cases, message):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"workers": 1, "cases": cases}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (out / "case_000").exists()

    @pytest.mark.parametrize("cases, code", [
        ([{"time": {"dt": 5.0}}], 2),
        ([{"reaction": {"theta_tilde": 0.5}}], 1),
        ([{"reaction": {"theta_tilde": 0.5}}, {"time": {"dt": 5.0}}], 2),
    ], ids=["config_error", "check_failure", "both"])
    def test_sweep_exits_with_the_largest_case_code(self, runner, tmp_path,
                                                    cases, code):
        cfg = _write_cfg(tmp_path, {"experiment": {"workers": 1, "cases": [
            {"experiment": {"name": "validate"}, **case} for case in cases]}})
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == code, result.output
        assert ("CHECK FAILED" in result.output) == (code == 1)
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[1]) for r in rows] == [
            2 if "time" in case else 1 for case in cases]


def _fresh_python(code, *args):
    """stdout of `code` run in a fresh interpreter that imports this
    checkout's frontlab."""
    src = str(Path(frontlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_package_attributes_are_its_submodules():
    # the package root binds no other name over a submodule's: a function
    # `evolve` re-exported there hid the module frontlab.evolve
    for info in pkgutil.iter_modules(frontlab.__path__):
        module = importlib.import_module("frontlab." + info.name)
        assert isinstance(module, types.ModuleType)
        assert getattr(frontlab, info.name) is module, info.name


def test_import_leaves_out_scipy_signal():
    # scipy.signal pulls in scipy.stats, which slows every CLI launch
    probe = "import sys, frontlab.cli; print('scipy.signal' in sys.modules)"
    assert _fresh_python(probe) == "False"


#: runs frontlab with the given arguments (none: import only), then prints
#: the modules it loaded
_MODULES_PROBE = """
import json, sys
from frontlab import cli
if sys.argv[1:]:
    try:
        cli.main(sys.argv[1:])
    except SystemExit as exit_:
        assert exit_.code == 0, exit_.code
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_modules(*args):
    return set(json.loads(_fresh_python(_MODULES_PROBE, *args)))


@pytest.mark.parametrize("experiment", [None, "comparison", "wave"])
def test_scipy_loads_only_for_the_wave_solve(tmp_path, experiment):
    args = []
    if experiment is not None:
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 3},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}}
            if experiment == "comparison" else {})
        args = [experiment, "--config", cfg, "--out", str(tmp_path / "out"),
                "--quiet"]
    modules = {m for m in _loaded_modules(*args) if m.startswith("scipy")}
    if experiment == "wave":  # the banded Newton solve: LAPACK alone
        assert "scipy.linalg._flapack" in modules
        assert "scipy" not in modules  # nor scipy's package __init__
        assert not modules & {"scipy.linalg", "scipy.interpolate",
                              "scipy.special", "scipy.fft"}
    else:
        assert modules == set()


@pytest.mark.parametrize("experiment", [None, "wave"])
def test_the_cli_never_loads_click(tmp_path, experiment):
    args = [] if experiment is None else [
        experiment, "--out", str(tmp_path / "out"), "--quiet"]
    assert not {m for m in _loaded_modules(*args)
                if m.split(".")[0] == "click"}


def test_front_leaves_out_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 11 ms of each
    # `front` launch; the width median is taken without it, to the bit
    out = tmp_path / "out"
    modules = _loaded_modules("front", "--out", str(out), "--quiet")
    assert "frontlab.evolve" in modules and "numpy.ma" not in modules
    track = np.loadtxt(out / "front_track.csv", delimiter=",", skiprows=1)
    summary = json.loads((out / "summary.json").read_text())
    settled = track[:, 0] >= load_config(None)["time"]["s"] + TRANSIENT
    assert summary["width_median"] == np.median(track[settled, 3])


#: solves one banded system with waves.spsolve and imports scipy.linalg in
#: the order argv[1] names, then checks the solve against solve_banded and
#: that both share one LAPACK module
_SOLVE_AND_IMPORT = """
import sys
import numpy as np
from frontlab import waves

def solve():
    band = np.random.default_rng(0).standard_normal((5, 8))
    ab = np.zeros((7, 8), order="F")
    ab[2:] = band
    return band, waves.spsolve(ab, np.ones(8))

if sys.argv[1] == "solve_first":
    band, x = solve()
    import scipy.linalg
else:
    import scipy.linalg
    band, x = solve()
print(np.array_equal(x, scipy.linalg.solve_banded((2, 2), band, np.ones(8)))
      and scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"])
"""


@pytest.mark.parametrize("order", ["solve_first", "import_first"])
def test_wave_solve_and_scipy_linalg_load_in_either_order(order):
    assert _fresh_python(_SOLVE_AND_IMPORT, order) == "True"


#: registered before frontlab.cli registers its own exit handler, so it
#: runs after that one
_FREEZE_PROBE = """
import atexit, gc
atexit.register(lambda: print(gc.get_freeze_count() > 0))
import frontlab.cli
"""


def test_cli_freezes_the_heap_at_exit():
    # the interpreter's final collections skip frozen objects
    assert _fresh_python(_FREEZE_PROBE) == "True"


def test_artifacts_are_whole_after_the_process_ends(tmp_path):
    # every file is written and closed before exit, so skipping the final
    # collections loses no byte
    out = tmp_path / "out"
    _fresh_python("import runpy; runpy.run_module('frontlab.cli', "
                  "run_name='__main__')", "validate", "--out", str(out),
                  "--quiet")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "summary.json" in manifest["files"]
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
