"""frontlab benchmark: three CLI workloads, timed end to end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a frontlab checkout; it runs the checkout's
``src/frontlab`` and writes only under ``.bench_out/`` there.  Every timed
pass is a fresh interpreter (``child.py``), as a CLI user pays for it.

``--trace 0`` starts passes until ``--seconds`` would be overrun (at least
one) and reports the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics.  Every pass goes through
the correctness gate in ``gate.py``.  Standard output ends with two JSON
lines: the run's provenance, then ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: passes still running this long after the run started are killed, so
#: that every run ends within 180 s
RUN_LIMIT_S = 170.0
#: import-only launches per timed run, beside the timed passes themselves
SETUP_PROBES = 4
SIGMAS = (0.75, 1.0, 1.5, 2.0)
#: 300 pairs take 24-28 s on the 2-core Xeon host; the default 100 pairs
#: run for under 10 s, where host noise is about three times larger
COMPARISON_PAIRS = 300

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, by name."""
    import tracer

    units = {}
    for name in tracer.TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for exp in tracer.EXPERIMENTS:
        units[f"cli.exp_{exp}.s"] = "s"
    units.update({
        "cli.artifacts.s": "s", "cli.output_bytes": "bytes",
        "kernels.conv_mflop": "Mflop",
        "evolve.step_u.calls": "count", "evolve.step_uw.calls": "count",
        "evolve.step.s": "s", "evolve.step.self_s": "s",
        "evolve.seed_evolves_per_front": "evolves/front",
        "evolve.relocations": "count",
        "waves.newton_iterations": "count", "waves.spsolve.s": "s",
        "trace.overhead_s": "s",
        "kernels.convolve.us": "us", "reactions.eval.us": "us",
        "reactions.dt_max.us": "us", "evolve.step_u.us": "us",
        "evolve.step_uw.us": "us", "kernels.build_kernel.ms": "ms",
    })
    return units


# ---------------------------------------------------------------------------
# workloads


def workload_inputs(name: str, seed: int):
    """(CLI arguments, config, gate keyword arguments) for one workload.

    The seed orders the sweep cases and seeds the comparison pairs; the work
    done is the same for every seed.
    """
    rng = random.Random(seed)
    if name == "wave-sweep":
        sigmas = list(SIGMAS)
        rng.shuffle(sigmas)
        cases = [{"experiment": {"name": "wave"}, "kernel": {"sigma": s}}
                 for s in sigmas]
        config = {"experiment": {"workers": 1, "cases": cases}}
        return "sweep", config, {"cases": [gate.WAVE[s] for s in sigmas]}
    if name == "diagnostics":
        names = ["front", "tails"]
        rng.shuffle(names)
        config = {"experiment": {"workers": 1, "cases": [
            {"experiment": {"name": n}} for n in names]}}
        refs = {"front": gate.FRONT, "tails": gate.TAILS}
        return "sweep", config, {"cases": [refs[n] for n in names]}
    if name == "comparison":
        config = {"experiment": {"pairs": COMPARISON_PAIRS}}
        return "comparison", config, {"pairs": COMPARISON_PAIRS}
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("wave-sweep", "diagnostics", "comparison")


# ---------------------------------------------------------------------------
# one pass in a fresh interpreter


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(root: Path, run_dir: Path, tag: str, cli_args: list[str],
             mode: str, deadline: float) -> dict:
    """Launch ``child.py`` once and reap it with ``os.wait4``.

    The child is killed if it still runs at ``deadline`` (``time.monotonic``).

    Returns the child's stamp plus ``exit_code``, ``wall_s`` (launch to
    exit), ``cpu_s`` (user + system time of the child), ``peak_rss_mb``,
    ``setup_s`` (launch until ``frontlab.cli`` was imported, when the child
    got that far) and ``out_dir``.
    """
    out_dir = run_dir / tag
    stamp_path = run_dir / f"{tag}.stamp.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--stamp", str(stamp_path), "--mode", mode, "--",
           *cli_args, "--out", str(out_dir)]
    with open(run_dir / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        stamp = json.loads(stamp_path.read_text())
    except (OSError, ValueError):
        stamp = {}
    result = dict(stamp, exit_code=proc.returncode, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, out_dir=out_dir)
    if "ready" in stamp:
        result["setup_s"] = stamp["ready"] - t0
    return result


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout)}


def provenance(root: Path, args) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((root / "src" / "frontlab").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git": _git(root),
        # as the benchmark found them; every child runs with them set to 1
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "src_frontlab_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# runs


class Run:
    """The passes of one benchmark run, and how many of them failed."""

    def __init__(self, root: Path, run_dir: Path, cli_args: list[str],
                 expect: dict):
        self.root, self.run_dir = root, run_dir
        self.cli_args, self.expect = cli_args, expect
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = self.failed = 0

    def probe(self, tag: str) -> dict:
        """Launch an interpreter that only imports the CLI."""
        return run_pass(self.root, self.run_dir, tag, self.cli_args,
                        "probe", self.deadline)

    def cli_pass(self, tag: str, mode: str = "cli") -> dict:
        """Run the CLI once, gate its output and print one line about it."""
        result = run_pass(self.root, self.run_dir, tag, self.cli_args, mode,
                          self.deadline)
        problems = gate.check_pass(result["out_dir"], result["exit_code"],
                                   **self.expect)
        src = (self.root / "src" / "frontlab").resolve()
        if Path(result.get("frontlab", "")).resolve() != src:
            problems.append(f"ran frontlab from {result.get('frontlab')}, "
                            f"not {src}")
        self.attempted += 1
        self.failed += bool(problems)
        print(f"{tag}: exit {result['exit_code']} "
              f"wall {result['wall_s']:.3f} s cpu {result['cpu_s']:.3f} s "
              f"rss {result['peak_rss_mb']:.1f} MB", flush=True)
        for problem in problems:
            print(f"  FAILED: {problem}", flush=True)
        return result


def timed_metrics(run: Run, seconds: float) -> dict[str, float]:
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run.cli_pass(f"pass{len(passes)}"))
        walls = [p["wall_s"] for p in passes]
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    probes = [run.probe(f"probe{i}") for i in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in passes + probes if "setup_s" in p]
    if not setups:
        raise RuntimeError("frontlab.cli never finished importing")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def traced_metrics(run: Run) -> dict[str, float]:
    base = run.cli_pass("untraced")
    traced = run.cli_pass("traced", mode="trace")
    if "layers" not in traced or "done" not in base:
        raise RuntimeError("the traced pass did not report its layers")
    metrics = dict(traced["layers"], **traced["micro"])
    metrics["cli.output_bytes"] = sum(
        p.stat().st_size for p in traced["out_dir"].rglob("*") if p.is_file())
    metrics["trace.overhead_s"] = ((traced["done"] - traced["start"])
                                   - (base["done"] - base["start"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frontlab" / "cli.py").is_file():
        print("error: run from the root of a frontlab checkout "
              "(src/frontlab/cli.py not found)", file=sys.stderr)
        return 2
    run_dir = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    command, config, expect = workload_inputs(args.workload, args.seed)
    config_path = run_dir / "config.yaml"
    config_path.write_text(json.dumps(config, indent=1) + "\n")  # JSON is YAML
    cli_args = [command, "--config", str(config_path),
                "--seed", str(args.seed), "--quiet"]

    run = Run(root, run_dir, cli_args, expect)
    try:
        if args.trace:
            metrics, units = traced_metrics(run), per_layer_units()
        else:
            metrics, units = timed_metrics(run, args.seconds), END_TO_END
    except RuntimeError as err:
        print(f"error: {err}; logs kept in {run_dir}", file=sys.stderr)
        return 1
    if run.failed:
        print(f"logs of the failed passes kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir)
    print(json.dumps({"provenance": provenance(root, args)}))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
