"""Config-driven experiment runner.

Usage::

    frontlab <experiment> --config cfg.yaml [--out DIR] [--seed N] [--quiet]

Experiments: validate, wave, front, steepness, tails, stability,
asymptotic, comparison, sweep.  Exit codes: 0 success, 1 theorem-check
failure, 2 usage/config error (a ValueError), 3 solver failure (a
SolverError: a computed solution broke down), 4 programming error; a sweep
exits with its failed cases' largest code.
"""

from __future__ import annotations

import copy
import functools
import glob
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .evolve import (SNAPSHOT_EVERY, TRANSIENT, build_approx_front,
                     whole_steps)
from .fields import FieldState, Grid, SolverError, smoothed_step
from .fronts import (check_steepness_bound, fit_exponential_tail,
                     interface_width, steepness, steepness_bound_constant)
from .kernels import _check_compatible, build_kernel, positive_decay_rate
from .reactions import make_ignition, max_slice, min_slice, validate_hypotheses
from .stability import (INITIAL_SHAPES, asymptotic_initial, comparison_test,
                        measured_c_min, run_asymptotic_experiment,
                        run_stability_experiment, select_alpha)
from .waves import solve_traveling_wave

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4


class CheckFailure(Exception):
    """A theorem check failed; message names the violated inequality.  A
    failed sweep sets code to the largest exit code of its cases."""
    code = EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# configuration

DEFAULTS = {
    "kernel": {"family": "gaussian", "tail_tolerance": 1e-6},
    "reaction": {"theta": 0.3, "theta_tilde": 0.9, "a_mean": 1.5,
                 "a_amp": 0.5, "omega_t": 1.0},
    "grid": {"x_min": -50.0, "x_max": 50.0, "n": 2001},
    "time": {"s": -30.0, "t_end": 60.0, "dt": 0.2},
    "experiment": {},
    "output": {"dir": "out"},
    "seed": 0,
}

#: each experiment's keys besides ``name``, with their defaults
EXPERIMENT_KEYS = {
    "asymptotic": {"initial": "mollified_step"},
    "comparison": {"pairs": 100, "t_end": 3.0},
    "sweep": {"cases": [], "workers": 2},
}


def _as_kind(where: str, value, default):
    """value as a value of default's kind: a list, a string or a number."""
    kind = type(default)
    if value is None:
        raise ValueError(f"config value {where!r} is null")
    if kind is list and not isinstance(value, list):
        raise ValueError(f"config value {where!r} is not a list: {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"config value {where!r} is not an integer: "
                         f"{value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"config value {where!r} is not a number: "
                         f"{value!r}") from None


def _deep_update(base: dict, extra: dict, path: str = "") -> dict:
    """base updated by extra, each value as the kind of the one it replaces.
    A key base does not name is an error, but in two open sections: the
    kernel's (a family's parameter, a number, which build_kernel checks;
    not its spacing, which the grid sets) and the experiment's, empty in
    DEFAULTS (_with_experiment checks it)."""
    out = copy.deepcopy(base)
    for key, val in extra.items():
        where = f"{path}{key}"
        if key not in out and (path != "kernel." or key == "spacing"):
            raise ValueError(f"unknown config key {where!r}")
        default = out.get(key, 1.0)
        if not isinstance(default, dict):
            out[key] = _as_kind(where, val, default)
        elif not isinstance(val, dict):
            raise ValueError(f"config section {where!r} is not a mapping")
        else:
            out[key] = (_deep_update(default, val, f"{where}.") if default
                        else copy.deepcopy(val))
    return out


def _with_experiment(cfg: dict, experiment: str) -> dict:
    """cfg with its experiment section merged over the experiment's keys."""
    keys = {"name": experiment, **EXPERIMENT_KEYS.get(experiment, {})}
    return _deep_update({**cfg, "experiment": keys},
                        {"experiment": cfg["experiment"]})


def load_config(path: str | None) -> dict:
    """DEFAULTS updated by the YAML mapping at path, if any."""
    loaded = {}
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ValueError("config root must be a mapping")
    return _deep_update(DEFAULTS, loaded)


def build_problem(cfg: dict):
    """(kernel, nonlinearity, grid) from the shared config sections; the
    kernel is sampled at the grid's spacing."""
    gc = cfg["grid"]
    grid = Grid(gc["x_min"], gc["x_max"], gc["n"])
    kern = build_kernel(spacing=grid.h, **cfg["kernel"])
    f = make_ignition(**cfg["reaction"])
    _check_compatible(kern, grid)
    tc = cfg["time"]
    s, t_end, dt = tc["s"], tc["t_end"], tc["dt"]
    if not 0.0 < dt <= f.dt_max() + 1e-12:
        raise ValueError(f"dt={dt} lies outside (0, {f.dt_max():.4f}], "
                         "the stability cap")
    if t_end < s + TRANSIENT:
        raise ValueError(f"time.t_end={t_end:g} lies before time.s + "
                         f"{TRANSIENT:g}, where the front has settled")
    # every run snapshots on whole time units: the front and the comparison
    # every SNAPSHOT_EVERY = 1, the stability pairs every 2; the front is
    # normalized at t = 0, where its two legs meet
    whole_steps(SNAPSHOT_EVERY, dt, "the snapshot interval", "time.dt")
    whole_steps(t_end - s, dt, "time.t_end - time.s", "time.dt")
    whole_steps(-s, SNAPSHOT_EVERY, "-time.s", "the snapshot interval")
    return kern, f, grid


# ---------------------------------------------------------------------------
# output plumbing


def _dist_version(name: str) -> str:
    """The version of the first <name>-<version>.dist-info directory on
    sys.path, the one importlib.metadata finds; importlib.metadata itself
    (20-30 ms to import) only when there is none."""
    for entry in sys.path:
        found = glob.glob(f"{name}-*.dist-info", root_dir=entry or ".")
        if found:
            return found[0][len(name) + 1:-len(".dist-info")]
    from importlib.metadata import version
    return version(name)


@functools.cache
def _versions() -> dict:
    """The library versions of every manifest, read once per process."""
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": _dist_version("scipy"), "click": _dist_version("click"),
            "frontlab": __version__}


class Artifacts:
    """Collects result files under one directory and writes the manifest."""

    def __init__(self, out_dir: Path, cfg: dict, quiet: bool):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.quiet = quiet
        self.files: list[str] = []
        self.t_start = time.time()

    def say(self, msg: str) -> None:
        if not self.quiet:
            click.echo(msg)

    def _register(self, path: Path) -> None:
        self.files.append(path.name)

    def write_csv(self, name: str, header: list[str],
                  columns: list[np.ndarray]) -> None:
        path = self.dir / name
        cols = [np.asarray(c) for c in columns]
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row % values
                          for values in zip(*(c.tolist() for c in cols)))
        self._register(path)

    def write_summary(self, summary: dict) -> None:
        path = self.dir / "summary.json"
        flat = {k: (float(v) if isinstance(v, (int, float, np.floating))
                    else v) for k, v in summary.items()}
        path.write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
        self._register(path)

    def plot(self, name: str, x, ys: dict, xlabel: str, ylabel: str,
             logy: bool = False) -> None:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except Exception:
            return
        fig, ax = plt.subplots(figsize=(7, 4))
        for label, y in ys.items():
            ax.plot(x, y, label=label)
        if logy:
            ax.set_yscale("log")
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        if len(ys) > 1:
            ax.legend()
        fig.tight_layout()
        path = self.dir / name
        fig.savefig(path, dpi=110)
        plt.close(fig)
        self._register(path)

    def finish(self) -> None:
        cfg_blob = json.dumps(self.cfg, sort_keys=True).encode()
        hashes = {}
        for name in self.files:
            digest = hashlib.sha256((self.dir / name).read_bytes())
            hashes[name] = digest.hexdigest()
        manifest = {
            "config_sha256": hashlib.sha256(cfg_blob).hexdigest(),
            "files": hashes,
            "wall_time_s": round(time.time() - self.t_start, 3),
            "versions": dict(_versions()),
        }
        (self.dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiments


WIDTH_LEVEL = 0.05  # the width is the diameter of {0.05 <= u <= 0.95}


def _wave(cfg, slice_fn):
    """The wave of slice_fn(f) (min_slice or max_slice) on [-60, 60], solved
    at each call: the front memo, which keeps its min wave, is the one
    per-process cache."""
    kern, f, _ = build_problem(cfg)
    grid = Grid(-60.0, 60.0, round(120.0 / kern.spacing) + 1)
    return solve_traveling_wave(kern, slice_fn(f), grid)


def _front_run(cfg):
    """(min wave, front with the u_x co-state), built once per problem."""
    problem = {key: cfg[key] for key in ("kernel", "reaction", "grid", "time")}
    return _front_memo(json.dumps(problem, sort_keys=True))


@functools.lru_cache(maxsize=4)
def _front_memo(problem: str):
    cfg = json.loads(problem)
    kern, f, grid = build_problem(cfg)
    tc = cfg["time"]
    wave = _wave(cfg, min_slice)
    run = build_approx_front(kern, f, wave, grid, tc["s"], tc["dt"],
                             tc["t_end"])
    u = run.snapshots[-1].u  # the front moves right in a fixed window
    if not (u[0] > 1.0 - WIDTH_LEVEL and u[-1] < WIDTH_LEVEL):
        raise ValueError(f"the front leaves grid [{grid.x_min:g}, "
                         f"{grid.x_max:g}] by time.t_end={tc['t_end']:g}")
    for snap in run.snapshots:  # shared by every caller of the memo
        snap.u.flags.writeable = snap.w.flags.writeable = False
    for arr in (wave.x, wave.phi, wave.dphi, run.track, run.speeds):
        arr.flags.writeable = False
    return wave, run


def exp_validate(cfg, art: Artifacts) -> dict:
    kern, f, _ = build_problem(cfg)
    report = validate_hypotheses(kern, f)
    art.say(report.to_text())
    rows = sorted(report.verdicts.items())
    art.write_csv("hypotheses.csv", ["index"] + [k for k, _ in rows],
                  [np.array([0])] + [np.array([int(v)]) for _, v in rows])
    summary = {f"h_{k}": int(v) for k, v in rows}
    summary.update(c_fu=report.c_fu, beta_tilde=report.beta_tilde,
                   dt_max=f.dt_max(), all_pass=int(report.all_pass))
    if not report.all_pass:
        raise CheckFailure("hypothesis violations: "
                           + "; ".join(report.violation_lines()))
    return summary


def exp_wave(cfg, art: Artifacts) -> dict:
    kern, f, grid = build_problem(cfg)
    tw_lo = solve_traveling_wave(kern, min_slice(f), grid)
    tw_hi = solve_traveling_wave(kern, max_slice(f), grid)
    art.write_csv("wave_profiles.csv", ["x", "phi_min", "dphi_min",
                                        "phi_max", "dphi_max"],
                  [tw_lo.x, tw_lo.phi, tw_lo.dphi, tw_hi.phi, tw_hi.dphi])
    art.plot("wave_profiles.png", tw_lo.x,
             {"phi_min": tw_lo.phi, "phi_max": tw_hi.phi}, "x", "phi")
    summary = {"c_star_min": tw_lo.speed, "c_star_max": tw_hi.speed,
               "residual_min": tw_lo.residual_norm,
               "residual_max": tw_hi.residual_norm}
    for tag, tw in (("min", tw_lo), ("max", tw_hi)):  # reported, not gated
        summary[f"newton_iterations_{tag}"] = tw.iterations
        summary[f"coarse_iterations_{tag}"] = tw.coarse_iterations
        # the largest rise phi[i+1] - phi[i]: a wide kernel's profile
        # ripples on the node pairs at the left window edge
        summary[f"monotone_defect_{tag}"] = float(
            np.max(np.diff(tw.phi), initial=0.0))
    if tw_hi.speed <= tw_lo.speed:
        raise CheckFailure("speed ordering c*(f_max) > c*(f_min) failed")
    return summary


def exp_front(cfg, art: Artifacts) -> dict:
    wave_lo, run = _front_run(cfg)
    wave_hi = _wave(cfg, max_slice)
    ts, xs, speeds = run.times, run.track, run.speeds
    widths = np.array([interface_width(s, WIDTH_LEVEL)
                       for s in run.snapshots])
    art.write_csv("front_track.csv", ["t", "x_theta", "speed", "width"],
                  [ts, xs, speeds, widths])
    art.plot("front_track.png", ts, {"x_theta": xs}, "t", "interface")
    art.plot("front_width.png", ts, {"width": widths}, "t", "width")
    sel = run.settled
    lo, hi = 0.98 * wave_lo.speed, 1.02 * wave_hi.speed
    settled = np.sort(widths[sel])  # np.median imports numpy.ma
    middle = settled[(settled.size - 1) // 2:settled.size // 2 + 1]
    summary = {"y_s": run.y_s, "speed_min": float(np.min(speeds[sel])),
               "speed_max": float(np.max(speeds[sel])),
               "envelope_lo": lo, "envelope_hi": hi,
               "width_max": float(settled[-1]),
               "width_median": float(np.mean(middle))}
    envelope = f"the envelope [{lo:.4f}, {hi:.4f}]"
    if summary["speed_min"] < lo:
        raise CheckFailure(f"interface speed fell below {envelope}")
    if summary["speed_max"] > hi:
        raise CheckFailure(f"interface speed rose above {envelope}")
    if summary["width_max"] > 2.0 * summary["width_median"]:
        raise CheckFailure("interface width is not uniformly bounded")
    return summary


#: steepness reads the snapshots from time.s + STEEP_FROM on
STEEP_FROM = 5.0


def exp_steepness(cfg, art: Artifacts) -> dict:
    kern, f, _ = build_problem(cfg)
    _, run = _front_run(cfg)
    snaps, ts, xs = run.snapshots, run.times, run.track
    late = [j for j, t in enumerate(ts) if t >= cfg["time"]["s"] + STEEP_FROM]
    ss = np.array([steepness(snaps[j], xs[j], 5.0) for j in late])
    art.write_csv("steepness.csv", ["t", "sup_w"], [ts[late], ss])
    art.plot("steepness.png", ts[late], {"sup_w": ss}, "t",
             "sup w near front")
    alpha_m = -float(np.max(ss))
    # each pair is held to the constant of its own spacing: a fractional
    # time.t_end leaves a last pair closer than SNAPSHOT_EVERY
    gaps = np.diff(ts[late]).tolist()
    consts = {gap: steepness_bound_constant(kern, f.lipschitz_bound(),
                                            dt=gap)[0] for gap in set(gaps)}
    margins = []
    for j, gap in zip(late, gaps):  # the last snapshot has no successor
        for delta in (-2.0, 0.0, 2.0):
            x = xs[j + 1] + delta
            lhs, rhs = check_steepness_bound(snaps[j], snaps[j + 1],
                                             consts[gap], x)
            margins.append(rhs - lhs)
    worst = float(np.min(margins))
    summary = {"alpha_m": alpha_m, "bound_constant": min(consts.values()),
               "bound_margin_min": worst}
    if alpha_m <= 0:
        raise CheckFailure("front is not uniformly steep (alpha_m <= 0)")
    if worst < -1e-8:
        raise CheckFailure("pointwise steepness bound violated")
    return summary


def exp_tails(cfg, art: Artifacts) -> dict:
    kern, _, _ = build_problem(cfg)
    _, run = _front_run(cfg)
    snap = run.snapshots[-1]
    x_ref = run.track[-1]
    right = fit_exponential_tail(snap, "right", x_from=x_ref + 8.0,
                                 values=snap.w)
    left = fit_exponential_tail(snap, "left", x_to=x_ref - 8.0,
                                values=snap.w)
    target = positive_decay_rate(kern, measured_c_min(run))
    art.write_csv("tails.csv", ["x", "u", "w"], [snap.x, snap.u, snap.w])
    art.plot("tails.png", snap.x, {"|w|": np.abs(snap.w) + 1e-30},
             "x", "|w|", logy=True)
    summary = {"right_rate": right.rate, "left_rate": left.rate,
               "right_r2": right.r_squared, "left_r2": left.r_squared,
               "target_rate": target}
    if right.rate < 0.9 * target:
        raise CheckFailure("right tail decays slower than the kernel bound")
    if left.rate <= 0:
        raise CheckFailure("left tail of the derivative does not decay")
    return summary


def exp_stability(cfg, art: Artifacts) -> dict:
    kern, f, _ = build_problem(cfg)
    dt = cfg["time"]["dt"]
    _, run = _front_run(cfg)
    params = select_alpha(run, kern, f)
    horizon = round(5.0 / params.omega / dt) * dt
    ref0 = run.snapshots[-1].with_(w=None)  # t0 is time.t_end
    eps = params.eps0
    report = run_stability_experiment(ref0, kern, f, params, horizon, dt)
    art.write_csv("sandwich.csv",
                  ["t", "envelope_distance", "q", "zeta_minus", "zeta_plus"],
                  [report.times, report.envelope_distance, report.q_values,
                   report.zeta_minus, report.zeta_plus])
    art.plot("sandwich.png", report.times,
             {"distance": report.envelope_distance + 1e-30,
              "q": report.q_values}, "t", "distance", logy=True)
    t3 = ref0.t + 3.0 / params.omega
    i3 = int(np.argmin(np.abs(report.times - t3)))
    summary = dict(params.as_dict())
    summary.update(eps=eps, horizon=horizon,
                   worst_violation=report.worst_violation,
                   interior_worst_violation=report.interior_worst_violation,
                   violation_count=report.violation_count,
                   distance_at_3_over_omega=report.envelope_distance[i3],
                   drift_at_3_over_omega=float(
                       params.A * eps / params.omega * (1.0 - np.exp(-3.0))),
                   edge_defect=report.edge_defect)
    if report.worst_violation > 1e-6:
        raise CheckFailure("sandwich violated beyond the discretization "
                           f"budget: {report.worst_violation:.3e}")
    if summary["distance_at_3_over_omega"] > 0.06 * eps:
        raise CheckFailure("envelope distance at 3/omega exceeds 0.06*eps")
    return summary


def exp_asymptotic(cfg, art: Artifacts) -> dict:
    shape = cfg["experiment"]["initial"]
    if shape not in INITIAL_SHAPES:
        raise ValueError(f"unknown initial shape {shape!r}")
    kern, f, _ = build_problem(cfg)
    dt = cfg["time"]["dt"]
    _, run = _front_run(cfg)
    ref0 = run.snapshots[-1].with_(w=None)  # t0 is time.t_end
    pair0 = asymptotic_initial(ref0, f.theta, shape)
    report = run_asymptotic_experiment(pair0, kern, f, horizon=400.0, dt=dt)
    art.write_csv("asymptotic.csv", ["t", "best_shift_distance"],
                  [report.times, report.sup_distances])
    art.plot("asymptotic.png", report.times,
             {"d(t)": report.sup_distances + 1e-30}, "t", "d(t)", logy=True)
    last = report.shift_series[-5:]
    summary = {"initial": shape, "zeta_star": report.zeta_star,
               "zeta_star_spread": float(np.max(last) - np.min(last)),
               "rate": report.fitted_rate, "r_squared": report.r_squared,
               "final_distance": float(report.sup_distances[-1])}
    if report.fitted_rate is None or report.fitted_rate <= 0:
        raise CheckFailure("best-shift distance does not decay")
    if report.r_squared < 0.98:
        raise CheckFailure("decay is not log-linear (R^2 < 0.98)")
    if summary["zeta_star_spread"] > 1e-2:
        raise CheckFailure("best shift has not settled (spread of the "
                           "last 5 shifts > 1e-2)")
    return summary


def _pool_map(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], in up to workers forked processes
    when there are several items, the platform forks and this process is
    not itself a pool worker (whose pool would put more processes than
    CPUs to work); in this process otherwise.  Forked, not spawned, the
    workers skip the package import and inherit this process's module
    state; an exception in one is raised here."""
    workers = min(workers, len(items))
    if workers > 1:
        import multiprocessing
        if (multiprocessing.parent_process() is None
                and "fork" in multiprocessing.get_all_start_methods()):
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(fn, items))
    return [fn(item) for item in items]


#: ordered pairs per evolve (16 lanes), for fewer and larger array calls
COMPARISON_BATCH = 8


def _comparison_batch(problem, t_end, dt, draws):
    """The margins of one batch of pairs, each drawn as (center, width,
    amplitude, bump position): the lower lane a smoothed step, the upper
    one that step plus a Gaussian bump, clipped to [0, 1]."""
    kern, f, grid = problem
    lo, hi = [], []
    for center, width, amplitude, position in draws:
        lo.append(smoothed_step(grid, center=center, width=width).u)
        bump = amplitude * np.exp(-((grid.x - position) / 4.0) ** 2)
        hi.append(np.clip(lo[-1] + bump, 0.0, 1.0))
    lanes = FieldState(t=0.0, x=grid.x, u=np.stack(lo),
                       u_left=np.ones(len(lo)), u_right=np.zeros(len(lo)))
    return comparison_test(lanes, lanes.with_(u=np.stack(hi)), kern, f,
                           t_end, dt)


def exp_comparison(cfg, art: Artifacts) -> dict:
    problem = build_problem(cfg)
    n_pairs, t_end = cfg["experiment"]["pairs"], cfg["experiment"]["t_end"]
    dt = cfg["time"]["dt"]
    if n_pairs < 1:
        raise ValueError(f"experiment.pairs={n_pairs} must be at least 1")
    if t_end <= 0.0:  # the pairs start at t = 0
        raise ValueError(f"experiment.t_end={t_end:g} does not lie after "
                         "t=0")
    whole_steps(t_end, dt, "experiment.t_end", "time.dt")
    rng = np.random.default_rng(cfg["seed"])
    draws = [(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 4.0),
              rng.uniform(0.0, 0.3), rng.uniform(-10.0, 10.0))
             for _ in range(n_pairs)]
    batches = [draws[first:first + COMPARISON_BATCH]
               for first in range(0, n_pairs, COMPARISON_BATCH)]
    # a worker per CPU this process may run on
    margins = np.concatenate(_pool_map(
        functools.partial(_comparison_batch, problem, t_end, dt), batches,
        len(os.sched_getaffinity(0))))
    art.write_csv("comparison.csv", ["pair", "min_margin"],
                  [np.arange(n_pairs), margins])
    summary = {"pairs": n_pairs, "min_margin": float(np.min(margins))}
    if summary["min_margin"] < -1e-8:
        raise CheckFailure("comparison principle violated: ordered data "
                           "crossed")
    return summary


def _sweep_case(job) -> int:
    sub_cfg, sub_dir = job
    return _run_experiment(sub_cfg["experiment"]["name"], sub_cfg, sub_dir,
                           quiet=True)


def exp_sweep(cfg, art: Artifacts) -> dict:
    cases, workers = cfg["experiment"]["cases"], cfg["experiment"]["workers"]
    if not cases:
        raise ValueError("sweep requires experiment.cases, a non-empty list")
    jobs = []
    for i, case in enumerate(cases):  # every case is checked before any runs
        try:
            if not isinstance(case, dict):
                raise ValueError(f"{case!r} is not a mapping")
            sub_cfg = _deep_update({**cfg, "experiment": {}}, case)
            name = sub_cfg["experiment"].get("name")
            if name not in [e for e in EXPERIMENTS if e != "sweep"]:
                raise ValueError(f"{name!r} is not a non-sweep experiment")
            sub_cfg = _with_experiment(sub_cfg, name)
        except ValueError as err:
            raise ValueError(f"sweep case {i}: {err}") from None
        jobs.append((sub_cfg, art.dir / f"case_{i:03d}"))
    codes = np.array(_pool_map(_sweep_case, jobs, workers))
    art.write_csv("sweep.csv", ["case", "exit_code"],
                  [np.arange(len(codes)), codes])
    summary = {"cases": len(codes), "failures": int(np.sum(codes != 0))}
    if summary["failures"]:
        err = CheckFailure(f"{summary['failures']} sweep case(s) failed")
        err.code = int(codes.max())
        raise err
    return summary


EXPERIMENTS = {
    "validate": exp_validate,
    "wave": exp_wave,
    "front": exp_front,
    "steepness": exp_steepness,
    "tails": exp_tails,
    "stability": exp_stability,
    "asymptotic": exp_asymptotic,
    "comparison": exp_comparison,
    "sweep": exp_sweep,
}


def _run_experiment(experiment: str, cfg: dict, out_dir: Path,
                    quiet: bool) -> int:
    art = Artifacts(out_dir, cfg, quiet)
    try:
        # a stale or misspelt experiment key fails before any solve
        art.cfg = cfg = _with_experiment(cfg, experiment)
        summary = EXPERIMENTS[experiment](cfg, art)
    except CheckFailure as err:
        art.write_summary({"passed": 0, "failure": str(err)})
        art.finish()
        art.say(f"CHECK FAILED: {err}" if err.code == EXIT_CHECK_FAILED
                else f"FAILED: {err}")
        return err.code
    except ValueError as err:  # an argument or config value as given
        art.say(f"configuration error: {err}")
        return EXIT_CONFIG
    except SolverError as err:  # a computed solution broke down
        art.say(f"solver failure: {err}")
        return EXIT_SOLVER
    except Exception:  # a programming error, neither a check nor bad input
        traceback.print_exc()
        return EXIT_INTERNAL
    summary["passed"] = 1
    art.write_summary(summary)
    art.finish()
    art.say(f"{experiment}: ok ({out_dir})")
    return EXIT_OK


@click.command()
@click.argument("experiment",
                type=click.Choice(sorted(EXPERIMENTS)))
@click.option("--config", "config_path", type=click.Path(exists=False),
              default=None, help="YAML configuration file.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (overrides config).")
@click.option("--seed", type=int, default=None,
              help="Random seed (overrides config).")
@click.option("--quiet", is_flag=True, default=False)
def main(experiment, config_path, out_dir, seed, quiet):
    """Run one named front-propagation experiment."""
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg["seed"] = seed
        cfg["experiment"]["name"] = experiment
        target = Path(out_dir) if out_dir else Path(cfg["output"]["dir"])
    except (OSError, yaml.YAMLError, ValueError) as err:
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    sys.exit(_run_experiment(experiment, cfg, target, quiet))


if __name__ == "__main__":
    main()
