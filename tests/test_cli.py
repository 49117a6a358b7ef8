import functools
import hashlib
import importlib
import json
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
from click.testing import CliRunner

import frontlab
from frontlab import cli
from frontlab.cli import load_config, main
from frontlab.evolve import Stepper
from frontlab.reactions import min_slice
from frontlab.stability import StabilityReport
from frontlab.waves import WaveError


@pytest.fixture()
def runner():
    return CliRunner()


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


class TestFrontMemo:
    def test_front_and_tails_share_one_build(self, tmp_path, monkeypatch):
        cfg = load_config(None)
        cfg["grid"].update(x_min=-30.0, x_max=30.0, n=1201)
        cfg["time"].update(s=-10.0, t_end=20.0)
        build, builds = cli.build_approx_front, []
        solve, solves = cli.solve_traveling_wave, []

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "build_approx_front", counted)
        monkeypatch.setattr(cli, "solve_traveling_wave", counted_solve)
        monkeypatch.setattr(cli, "_WAVES", {})
        cli._front_memo.cache_clear()
        wave, run = cli._front_run(cfg)
        assert not wave.phi.flags.writeable
        assert not (run.track.flags.writeable or run.speeds.flags.writeable)
        before = [(s.u.copy(), s.w.copy()) for s in run.snapshots]
        for name in ("front", "tails"):
            assert cli._run_experiment(name, cfg, tmp_path / name,
                                       quiet=True) == 0
        assert len(builds) == 1
        for snap, (u, w) in zip(run.snapshots, before):
            assert np.array_equal(snap.u, u) and np.array_equal(snap.w, w)

        cli._front_memo.cache_clear()
        assert cli._run_experiment("tails", cfg, tmp_path / "fresh",
                                   quiet=True) == 0
        assert len(builds) == 2
        assert len(solves) == 2   # the min and the max wave, once each
        for name in ("tails.csv", "summary.json"):
            assert ((tmp_path / "tails" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())


    def test_wave_window_rounds_its_node_count(self, monkeypatch):
        # 120 / (100 / 1190) is 1427.9999999999998 in floating point; the
        # wave window needs 1429 nodes at the kernel's spacing, not 1428
        cfg = load_config(None)
        cfg["kernel"]["spacing"] = 0.08403361344537816
        cfg["grid"]["n"] = 1191
        cli.build_problem(cfg)
        monkeypatch.setattr(cli, "_WAVES", {})
        wave = cli._wave(cfg, min_slice)
        assert wave.x.size == 1429
        assert wave.residual_norm <= 1e-8


#: share of its own margin by which halving time.dt may move a `front` gate
STEP_BUDGET = 1e-4


def _front_margins(out_dir, dt):
    """How far each gate of `front` at the default config, with the given
    time.dt, stands from failing."""
    cfg = load_config(None)
    cfg["time"]["dt"] = dt
    assert cli._run_experiment("front", cfg, out_dir, quiet=True) == 0
    s = json.loads((out_dir / "summary.json").read_text())
    return {"speed_min": s["speed_min"] - s["envelope_lo"],
            "speed_max": s["envelope_hi"] - s["speed_max"],
            "width_max": 2.0 * s["width_median"] - s["width_max"]}


def _unconverged_gates(tmp_path):
    """The `front` gates whose margin moves by more than STEP_BUDGET of
    itself when the default time.dt halves."""
    dt = load_config(None)["time"]["dt"]
    coarse = _front_margins(tmp_path / "dt", dt)
    fine = _front_margins(tmp_path / "half_dt", 0.5 * dt)
    return {gate: (margin, abs(margin - fine[gate]))
            for gate, margin in coarse.items()
            if abs(margin - fine[gate]) > STEP_BUDGET * margin}


class TestDefaultStep:
    def test_default_dt_is_converged(self, tmp_path):
        assert _unconverged_gates(tmp_path) == {}

    def test_first_order_step_is_not_converged(self, tmp_path, monkeypatch):
        # forward Euler in place of RK4: its error halves with dt, where
        # RK4's falls 16-fold, and the check must see that
        def euler(self, state, dt):
            # one lane, packed as [u_left | u | u_right] like RK4's stages
            y = np.concatenate(([state.u_left], state.u, [state.u_right]))
            k, kw = self._rhs(state.t, y, state.w)
            y = y + dt * k
            return state.with_(
                t=state.t + dt, u=y[1:-1],
                w=None if kw is None else state.w + dt * kw,
                u_left=float(y[0]), u_right=float(y[-1]))

        monkeypatch.setattr(Stepper, "step", euler)
        # a memo of its own, so no Euler front outlives the test
        monkeypatch.setattr(cli, "_front_memo", functools.lru_cache(
            maxsize=4)(cli._front_memo.__wrapped__))
        unconverged = _unconverged_gates(tmp_path)
        assert {"speed_min", "speed_max"} <= unconverged.keys()


def _steepness_summary(out_dir, spacing, n):
    """`steepness` summary at the default config on the default window,
    with the given kernel spacing and node count."""
    cfg = load_config(None)
    cfg["kernel"]["spacing"] = spacing
    cfg["grid"]["n"] = n
    assert cli._run_experiment("steepness", cfg, out_dir, quiet=True) == 0
    return json.loads((out_dir / "summary.json").read_text())


class TestSteepnessGrid:
    def test_halving_h_moves_no_steepness_gate(self, tmp_path):
        coarse = _steepness_summary(tmp_path / "h", 0.05, 2001)
        fine = _steepness_summary(tmp_path / "half_h", 0.025, 4001)
        # the infimum over exactly [-1, 1] is J(1) on either grid
        assert fine["bound_constant"] == pytest.approx(
            coarse["bound_constant"], rel=1e-6)
        for gate in ("bound_margin_min", "alpha_m"):
            assert (abs(fine[gate] - coarse[gate])
                    <= STEP_BUDGET * coarse[gate]), gate


def _steepness_of_edited_front(runner, tmp_path, monkeypatch, edit):
    """`frontlab steepness` at the defaults on the default front, with its
    snapshots passed through edit(snapshots, s)."""
    cfg = load_config(None)
    wave, run = cli._front_run(cfg)
    snaps = edit(run.snapshots, cfg["time"]["s"])
    edited = replace(run, trajectory=replace(run.trajectory,
                                             snapshots=snaps))
    monkeypatch.setattr(cli, "_front_run", lambda cfg: (wave, edited))
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


class TestExitCodes:
    def test_validate_ok(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["validate", "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] == 1
        assert (out / "hypotheses.csv").exists()
        assert (out / "manifest.json").exists()

    def test_missing_config_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--config",
                                      str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2

    def test_unknown_experiment_is_usage_error(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2

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
        ("steepness", {"dt": 0.03},
         "time.cadence=1 is not a whole multiple of time.dt=0.03"),
        ("front", {"s": -10.01, "t_end": 20.0},
         "time.t_end - time.s=30.01 is not a whole multiple of time.dt=0.2"),
        ("front", {"s": -10.0, "t_end": 5.0},
         "time.t_end=5 lies before time.s + 20"),
        # time.cadence 0.99 is 33 steps; the paired snapshot interval 2 is
        # not a whole number of them
        ("stability", {"s": -10.0, "t_end": 11.0, "dt": 0.03,
                       "cadence": 0.99},
         "the stability snapshot interval=2 is not a whole multiple of "
         "time.dt=0.03"),
        ("asymptotic", {"s": -10.0, "t_end": 11.0, "dt": 0.03,
                        "cadence": 0.99},
         "the stability snapshot interval=2 is not a whole multiple of "
         "time.dt=0.03"),
    ], ids=["off_cadence", "off_step_run", "short_run",
            "stability_off_step_pairs", "asymptotic_off_step_pairs"])
    def test_time_section_is_checked_before_any_solve(
            self, runner, tmp_path, monkeypatch, experiment, time, message):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the time section was "
                                 "checked")

        monkeypatch.setattr(cli, "_WAVES", {})  # no memoized wave to reuse
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
        assert f"{experiment} reads no experiment key {key!r}" \
            in result.output

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
        cfg = _write_cfg(tmp_path, {"experiment": {"pairs": 2.0,
                                                   "t_end": 1.0}})
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
            raise WaveError("Newton polish did not converge within the cap")

        monkeypatch.setattr(cli, "solve_traveling_wave", breakdown)
        result = runner.invoke(main, ["wave",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "solver failure: Newton polish" in result.output

    def test_one_node_kernel_is_not_an_internal_error(self, runner,
                                                      tmp_path):
        # bump a = 0.05 at spacing 0.05 has half_points 1, so the coarse
        # kernel of the two-level solve is one node wide and the band needs
        # rows for the advection diagonals beyond the kernel's
        cfg = _write_cfg(tmp_path, {"kernel": {"family": "bump", "a": 0.05}})
        result = runner.invoke(main, ["wave", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code in (0, 3), result.output

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

    def test_grid_spacing_mismatch_is_config_error(self, runner, tmp_path):
        # n = 1001 on [-50, 50] gives h = 0.1 against kernel spacing 0.05
        cfg = _write_cfg(tmp_path, {"grid": {"n": 1001}})
        result = runner.invoke(main, ["front", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "spacing" in result.output

    @pytest.mark.parametrize("t_end", [0.0, -3.0])
    def test_comparison_not_forward_in_time_is_config_error(self, runner,
                                                            tmp_path, t_end):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 1, "t_end": t_end},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}})
        result = runner.invoke(main, ["comparison", "--config", cfg,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "does not lie after" in result.output

    @pytest.mark.parametrize("patch, message", [
        ({"experiment": {"pairs": 0}},
         "experiment.pairs=0 must be at least 1"),
        ({"experiment": {"t_end": 3.01}},
         "experiment.t_end=3.01 is not a whole multiple of time.dt=0.2"),
        # t_end and time.cadence are whole steps, the comparison's snapshots
        # one time unit apart are not
        ({"experiment": {"pairs": 2, "t_end": 3.0},
          "time": {"dt": 0.03, "cadence": 0.99}},
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
            "experiment": {"pairs": 3, "t_end": 1.0},
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
        def violated(ref0, *args, **kwargs):
            one = np.array([0.0])
            return StabilityReport(
                times=one + ref0.t, envelope_distance=one, q_values=one,
                zeta_minus=one, zeta_plus=one, violation_count=1,
                worst_violation=5e-6, edge_defect=2.4e-5,
                interior_worst_violation=5e-6)

        monkeypatch.setattr(cli, "run_stability_experiment", violated)
        code = cli._run_experiment("stability", load_config(None),
                                   tmp_path, quiet=True)
        assert code == 1
        failure = json.loads((tmp_path / "summary.json").read_text())
        assert "sandwich violated" in failure["failure"]


class TestDeterminism:
    def test_csv_bytes_reproducible(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 2, "t_end": 1.0},
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
            "experiment": {"pairs": 2, "t_end": 1.0},
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
                                             "click", "frontlab"}
        assert manifest["versions"]["frontlab"] == frontlab.__version__


class TestSweep:
    def test_runs_cases_in_subdirs(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"workers": 2, "cases": [
                {"experiment": {"name": "validate"}},
                {"experiment": {"name": "comparison", "pairs": 1,
                                "t_end": 1.0}},
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

    @pytest.mark.parametrize("cases, message", [
        ([{"experiment": {"name": "validate"}},
          {"experiment": {"name": "bogus"}}],
         "sweep case 1: 'bogus' is not a non-sweep experiment"),
        ([{"experiment": {"name": "sweep"}}],
         "sweep case 0: 'sweep' is not a non-sweep experiment"),
        ([5], "sweep case 0: 5 is not a mapping"),
        ([{"experiment": "validate"}],
         "sweep case 0: config section 'experiment' is not a mapping"),
        ({"a": 1}, "experiment.cases, a list"),
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
#: the scipy modules it loaded
_SCIPY_PROBE = """
import json, sys
from frontlab import cli
if sys.argv[1:]:
    try:
        cli.main(sys.argv[1:])
    except SystemExit as exit_:
        assert exit_.code == 0, exit_.code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


@pytest.mark.parametrize("experiment", [None, "comparison", "wave"])
def test_scipy_loads_only_for_the_wave_solve(tmp_path, experiment):
    args = []
    if experiment is not None:
        cfg = _write_cfg(tmp_path, {
            "experiment": {"pairs": 3, "t_end": 1.0},
            "grid": {"x_min": -30.0, "x_max": 30.0, "n": 1201}}
            if experiment == "comparison" else {})
        args = [experiment, "--config", cfg, "--out", str(tmp_path / "out"),
                "--quiet"]
    modules = set(json.loads(_fresh_python(_SCIPY_PROBE, *args)))
    if experiment == "wave":  # the banded Newton solve: LAPACK alone
        assert "scipy.linalg._flapack" in modules
        assert not modules & {"scipy.linalg", "scipy.interpolate",
                              "scipy.special", "scipy.fft"}
    else:
        assert modules == set()


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
