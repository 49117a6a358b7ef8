"""Tests of the benchmark itself: the gate, the tracer and the pass launcher.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def write_summary(path: Path, **values) -> None:
    path.mkdir(parents=True, exist_ok=True)
    (path / "summary.json").write_text(json.dumps(values))


def wave_sweep_dir(tmp_path: Path) -> tuple[Path, list[dict]]:
    cases = [gate.WAVE[s] for s in (1.5, 0.75)]
    write_summary(tmp_path, cases=2, failures=0, passed=1)
    for i, ref in enumerate(cases):
        write_summary(tmp_path / f"case_{i:03d}", passed=1, **ref)
    return tmp_path, cases


# ---------------------------------------------------------------------------
# correctness gate


def test_gate_accepts_seed_values(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    assert gate.check_pass(out, 0, cases=cases) == []


def test_gate_trips_on_failed_case(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    write_summary(out / "case_001", passed=0, **cases[1])
    assert gate.check_pass(out, 0, cases=cases)


def test_gate_trips_on_failed_sweep(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    write_summary(out, cases=2, failures=1, passed=0)
    assert gate.check_pass(out, 0, cases=cases)


def test_gate_trips_on_shifted_value(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    shifted = dict(cases[0], c_star_min=cases[0]["c_star_min"] + 1e-5)
    write_summary(out / "case_000", passed=1, **shifted)
    problems = gate.check_pass(out, 0, cases=cases)
    assert len(problems) == 1 and "c_star_min" in problems[0]


def test_gate_trips_on_missing_case_dir(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    shutil.rmtree(out / "case_001")
    assert gate.check_pass(out, 0, cases=cases)


def test_gate_trips_on_exit_code(tmp_path):
    out, cases = wave_sweep_dir(tmp_path)
    assert gate.check_pass(out, 1, cases=cases)


@pytest.mark.parametrize("pairs, margin, ok", [
    (200, -1e-9, True), (200, -1e-6, False), (199, 0.0, False),
    (200, float("nan"), False)])
def test_gate_comparison(tmp_path, pairs, margin, ok):
    write_summary(tmp_path, pairs=pairs, min_margin=margin, passed=1)
    assert (gate.check_pass(tmp_path, 0, pairs=200) == []) == ok


def test_workloads_reference_every_case():
    for name in run.WORKLOADS:
        for seed in range(4):
            command, config, expect = run.workload_inputs(name, seed)
            cases = config["experiment"].get("cases")
            if command == "sweep":
                assert config["experiment"]["workers"] == 1
                assert len(expect["cases"]) == len(cases)
            assert run.workload_inputs(name, seed) == (command, config,
                                                       expect)


# ---------------------------------------------------------------------------
# tracer


def _bindings():
    """Every frontlab module attribute, class attribute and dict entry."""
    import frontlab.cli  # noqa: F401
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "frontlab" and not mod_name.startswith("frontlab."):
            continue
        for key, value in vars(mod).items():
            seen[(mod_name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(mod_name, key, attr)] = member
            elif isinstance(value, dict):
                for dkey, dval in value.items():
                    seen[(mod_name, key, "[]", dkey)] = dval
    return seen


def test_tracer_restores_every_name():
    before = _bindings()
    tr = tracer.Tracer().install()
    during = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("frontlab.waves", "spsolve") in changed
    assert ("frontlab.evolve", "_convolve_samples") in changed
    assert ("frontlab.cli", "EXPERIMENTS", "[]", "wave") in changed
    assert ("frontlab.evolve", "Stepper", "step") in changed
    tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_steps_and_convolutions():
    from frontlab.evolve import evolve
    from frontlab.fields import Grid, smoothed_step
    from frontlab.kernels import build_kernel
    from frontlab.reactions import make_default_ignition

    kernel = build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                          sigma=1.0)
    f = make_default_ignition()
    state = smoothed_step(Grid(-50.0, 50.0, 2001))
    # the package re-exports the function evolve under the module's name
    evolve_module = sys.modules["frontlab.evolve"]
    tr = tracer.Tracer().install()
    try:
        evolve_module.evolve(state, kernel, f, 0.5, 0.05)
        evolve_module.evolve(state.with_(w=np.gradient(state.u, state.h)),
                             kernel, f, 0.2, 0.05)
    finally:
        tr.restore()
    m = tr.metrics()
    assert evolve_module.evolve is evolve
    assert m["evolve.evolve.calls"] == 2
    assert (m["evolve.step_u.calls"], m["evolve.step_uw.calls"]) == (10, 4)
    assert m["kernels.convolve.calls"] == 4 * 10 + 8 * 4
    assert m["reactions.eval.calls"] == 4 * 10 + 4 * 4
    assert m["reactions.eval_du.calls"] == 4 * 4
    assert m["kernels.conv_mflop"] == pytest.approx(
        72 * 2 * 2001 * kernel.samples.size / 1e6)
    assert 0.0 < m["evolve.step.self_s"] < m["evolve.step.s"]
    assert m["evolve.step.s"] <= m["evolve.evolve.s"]


# ---------------------------------------------------------------------------
# launcher and contract


def test_each_pass_is_a_new_process(tmp_path):
    cli_args = ["validate", "--quiet"]
    deadline = time.monotonic() + 120.0
    first = run.run_pass(ROOT, tmp_path, "a", cli_args, "cli", deadline)
    second = run.run_pass(ROOT, tmp_path, "b", cli_args, "cli", deadline)
    assert first["exit_code"] == second["exit_code"] == 0
    assert len({first["pid"], second["pid"], os.getpid()}) == 3
    for result in (first, second):
        assert 0.0 < result["setup_s"] < result["wall_s"]
        assert result["cpu_s"] > 0.0 and result["peak_rss_mb"] > 0.0
        assert (result["out_dir"] / "summary.json").is_file()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "comparison",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
