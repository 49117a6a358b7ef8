import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import frontlab
from frontlab import cli
from frontlab.cli import load_config, main
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
        assert cfg["time"]["dt"] == 0.05

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
         "time.t_end - time.s=30.01 is not a whole multiple of time.dt=0.05"),
        ("front", {"s": -10.0, "t_end": 5.0},
         "time.t_end=5 lies before time.s + 20"),
    ], ids=["off_cadence", "off_step_run", "short_run"])
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
         "experiment.t_end=3.01 is not a whole multiple of time.dt=0.05"),
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

    def test_failing_case_fails_sweep(self, runner, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "experiment": {"workers": 1, "cases": [
                {"experiment": {"name": "validate"},
                 "reaction": {"theta_tilde": 0.5}},
            ]}})
        result = runner.invoke(main, ["sweep", "--config", cfg,
                                      "--out", str(tmp_path / "out"),
                                      "--quiet"])
        assert result.exit_code == 1


def test_import_leaves_out_scipy_signal():
    # scipy.signal pulls in scipy.stats, which slows every CLI launch
    probe = "import sys, frontlab.cli; print('scipy.signal' in sys.modules)"
    src = str(Path(frontlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
