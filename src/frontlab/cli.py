"""Config-driven experiment runner.

Usage::

    frontlab <experiment> --config cfg.yaml [--out DIR] [--seed N] [--quiet]

Experiments: validate, wave, front, steepness, tails, stability,
asymptotic, comparison, sweep.  Exit codes: 0 success, 1 theorem-check
failure, 2 usage/config error, 3 solver failure (a numerical breakdown),
4 programming error; a sweep exits with its failed cases' largest code.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .evolve import TRANSIENT, EvolveError, build_approx_front
from .fields import Grid, smoothed_step
from .fronts import (check_steepness_bound, fit_exponential_tail,
                     interface_width, steepness, steepness_bound_constant)
from .kernels import _check_compatible, build_kernel, positive_decay_rate
from .reactions import make_ignition, max_slice, min_slice, validate_hypotheses
from .stability import (CADENCE, COMPARISON_CADENCE, INITIAL_SHAPES,
                        StabilityError, asymptotic_initial, comparison_test,
                        measured_c_min, run_asymptotic_experiment,
                        run_stability_experiment, select_alpha)
from .waves import WaveError, solve_traveling_wave

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

#: numerical breakdowns (the package rejects bad input with ValueErrors)
SOLVER_ERRORS = (WaveError, EvolveError, StabilityError)


class CheckFailure(Exception):
    """A theorem check failed; message names the violated inequality.  A
    failed sweep sets code to the largest exit code of its cases."""
    code = EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# configuration

DEFAULTS = {
    "kernel": {"family": "gaussian", "sigma": 1.0, "spacing": 0.05,
               "tail_tolerance": 1e-6},
    "reaction": {"theta": 0.3, "theta_tilde": 0.9, "a_mean": 1.5,
                 "a_amp": 0.5, "omega_t": 1.0},
    "grid": {"x_min": -50.0, "x_max": 50.0, "n": 2001},
    "time": {"s": -30.0, "t_end": 60.0, "dt": 0.2, "cadence": 1.0},
    "experiment": {},
    "output": {"dir": "out"},
    "seed": 0,
}


def _deep_update(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in (extra or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], val)
        elif val is None:
            raise ValueError(f"config value {key!r} is null")
        elif isinstance(out.get(key), dict):
            raise ValueError(f"config section {key!r} is not a mapping")
        else:
            out[key] = val
    return out


def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ValueError("config root must be a mapping")
        cfg = _deep_update(cfg, loaded)
    return cfg


def _num(section: dict, key: str, default=None, kind=float):
    """section[key], or the default, as a number of the given kind."""
    value = section.get(key, default)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"config value {key!r} is not an integer: {value!r}")
    try:
        return kind(value)
    except TypeError:
        raise ValueError(f"config value {key!r} is not a number: "
                         f"{value!r}") from None


def _check_whole_steps(key: str, span: float, dt: float) -> None:
    """Snapshots fall on whole steps: span must be a whole multiple of dt."""
    steps = span / dt
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"{key}={span:g} is not a whole multiple of "
                         f"time.dt={dt:g}")


def build_problem(cfg: dict):
    """(kernel, nonlinearity, grid) from the shared config sections."""
    kc = dict(cfg["kernel"])
    family = kc.pop("family")
    kern = build_kernel(family, **{key: _num(kc, key) for key in kc})
    try:
        f = make_ignition(**cfg["reaction"])
    except TypeError as err:  # an unknown or mistyped reaction key
        raise ValueError(f"reaction: {err}") from err
    gc = cfg["grid"]
    grid = Grid(_num(gc, "x_min"), _num(gc, "x_max"), _num(gc, "n", kind=int))
    _check_compatible(kern, grid)
    tc = cfg["time"]
    dt = _num(tc, "dt")
    if not 0.0 < dt <= f.dt_max() + 1e-12:
        raise ValueError(f"dt={dt} lies outside (0, {f.dt_max():.4f}], "
                         "the stability cap")
    s, t_end = _num(tc, "s"), _num(tc, "t_end")
    if t_end < s + TRANSIENT:
        raise ValueError(f"time.t_end={t_end:g} lies before time.s + "
                         f"{TRANSIENT:g}, where the front has settled")
    _check_whole_steps("time.cadence", _num(tc, "cadence"), dt)
    _check_whole_steps("time.t_end - time.s", t_end - s, dt)
    return kern, f, grid


# ---------------------------------------------------------------------------
# output plumbing


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
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join("%.17g" % v for v in row) + "\n")
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
        import importlib.metadata  # only the manifest reads it
        cfg_blob = json.dumps(self.cfg, sort_keys=True).encode()
        hashes = {}
        for name in self.files:
            digest = hashlib.sha256((self.dir / name).read_bytes())
            hashes[name] = digest.hexdigest()
        manifest = {
            "config_sha256": hashlib.sha256(cfg_blob).hexdigest(),
            "files": hashes,
            "wall_time_s": round(time.time() - self.t_start, 3),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": importlib.metadata.version("scipy"),
                "click": importlib.metadata.version("click"),
                "frontlab": __version__,
            },
        }
        (self.dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiments


WIDTH_LEVEL = 0.05  # the width is the diameter of {0.05 <= u <= 0.95}
#: the wave of each slice, by the kernel and reaction sections it reads
_WAVES = {}


def _wave(cfg, slice_fn):
    """The wave of slice_fn(f) (min_slice or max_slice) on [-60, 60],
    solved once per kernel and reaction."""
    key = (json.dumps([cfg["kernel"], cfg["reaction"]], sort_keys=True,
                      default=str), slice_fn)
    if key not in _WAVES:
        kern, f, _ = build_problem(cfg)
        grid = Grid(-60.0, 60.0, round(120.0 / kern.spacing) + 1)
        wave = solve_traveling_wave(kern, slice_fn(f), grid)
        for arr in (wave.x, wave.phi, wave.dphi):  # shared by every caller
            arr.flags.writeable = False
        _WAVES[key] = wave
    return _WAVES[key]


def _front_run(cfg):
    """(min wave, front with the u_x co-state), built once per problem."""
    problem = {key: cfg[key] for key in ("kernel", "reaction", "grid", "time")}
    return _front_memo(json.dumps(problem, sort_keys=True, default=str))


@functools.lru_cache(maxsize=4)
def _front_memo(problem: str):
    cfg = json.loads(problem)
    kern, f, grid = build_problem(cfg)
    tc = cfg["time"]
    wave = _wave(cfg, min_slice)
    run = build_approx_front(kern, f, wave, grid, _num(tc, "s"),
                             _num(tc, "dt"), _num(tc, "t_end"),
                             _num(tc, "cadence"))
    u = run.snapshots[-1].u  # the front moves right in a fixed window
    if not (u[0] > 1.0 - WIDTH_LEVEL and u[-1] < WIDTH_LEVEL):
        raise ValueError(f"the front leaves grid [{grid.x_min:g}, "
                         f"{grid.x_max:g}] by time.t_end={tc['t_end']:g}")
    for snap in run.snapshots:  # shared by every caller of the memo
        snap.u.flags.writeable = snap.w.flags.writeable = False
    run.track.flags.writeable = run.speeds.flags.writeable = False
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
    summary = {"y_s": run.y_s, "speed_min": float(np.min(speeds[sel])),
               "speed_max": float(np.max(speeds[sel])),
               "envelope_lo": lo, "envelope_hi": hi,
               "width_max": float(np.max(widths[sel])),
               "width_median": float(np.median(widths[sel]))}
    if summary["speed_min"] < lo or summary["speed_max"] > hi:
        raise CheckFailure("interface speed left the envelope "
                           f"[{lo:.4f}, {hi:.4f}]")
    if summary["width_max"] > 2.0 * summary["width_median"]:
        raise CheckFailure("interface width is not uniformly bounded")
    return summary


def exp_steepness(cfg, art: Artifacts) -> dict:
    kern, f, _ = build_problem(cfg)
    _, run = _front_run(cfg)
    s = _num(cfg["time"], "s")
    snaps, ts, xs = run.snapshots, run.times, run.track
    late = [j for j, t in enumerate(ts) if t >= s + 5.0]
    ss = np.array([steepness(snaps[j], xs[j], 5.0) for j in late])
    art.write_csv("steepness.csv", ["t", "sup_w"], [ts[late], ss])
    art.plot("steepness.png", ts[late], {"sup_w": ss}, "t",
             "sup w near front")
    alpha_m = -float(np.max(ss))
    const, _ = steepness_bound_constant(kern, f.lipschitz_bound(),
                                        dt=_num(cfg["time"], "cadence"))
    margins = []
    for j in late[:-1]:  # the last snapshot has no successor
        for delta in (-2.0, 0.0, 2.0):
            x = xs[j + 1] + delta
            lhs, rhs = check_steepness_bound(snaps[j], snaps[j + 1], const,
                                             x)
            margins.append(rhs - lhs)
    worst = float(np.min(margins)) if margins else float("nan")
    summary = {"alpha_m": alpha_m, "bound_constant": const,
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
    dt = _num(cfg["time"], "dt")
    _check_whole_steps("the stability snapshot interval", CADENCE, dt)
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
    shape = cfg["experiment"].get("initial", "mollified_step")
    if shape not in INITIAL_SHAPES:
        raise ValueError(f"unknown initial shape {shape!r}")
    kern, f, _ = build_problem(cfg)
    dt = _num(cfg["time"], "dt")
    _check_whole_steps("the stability snapshot interval", CADENCE, dt)
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


def exp_comparison(cfg, art: Artifacts) -> dict:
    kern, f, grid = build_problem(cfg)
    ec = cfg["experiment"]
    n_pairs = _num(ec, "pairs", 100, kind=int)
    t_end = _num(ec, "t_end", 3.0)
    dt = _num(cfg["time"], "dt")
    if n_pairs < 1:
        raise ValueError(f"experiment.pairs={n_pairs} must be at least 1")
    if t_end <= 0.0:  # the pairs start at t = 0
        raise ValueError(f"experiment.t_end={t_end:g} does not lie after "
                         "t=0")
    _check_whole_steps("experiment.t_end", t_end, dt)
    _check_whole_steps("the comparison's snapshot interval",
                       COMPARISON_CADENCE, dt)
    rng = np.random.default_rng(_num(cfg, "seed", kind=int))
    margins = []
    for _ in range(n_pairs):
        center = rng.uniform(-5.0, 5.0)
        width = rng.uniform(0.5, 4.0)
        lo = smoothed_step(grid, center=center, width=width)
        bump = rng.uniform(0.0, 0.3) * np.exp(
            -((grid.x - rng.uniform(-10.0, 10.0)) / 4.0) ** 2)
        hi = lo.with_(u=np.clip(lo.u + bump, 0.0, 1.0))
        margins.append(comparison_test(lo, hi, kern, f, t_end, dt))
    margins = np.array(margins)
    art.write_csv("comparison.csv", ["pair", "min_margin"],
                  [np.arange(n_pairs), margins])
    summary = {"pairs": n_pairs, "min_margin": float(np.min(margins))}
    if summary["min_margin"] < -1e-8:
        raise CheckFailure("comparison principle violated: ordered data "
                           "crossed")
    return summary


def _sweep_worker(args):
    sub_cfg, sub_dir, quiet = args
    code = _run_experiment(sub_cfg["experiment"]["name"], sub_cfg,
                           Path(sub_dir), quiet)
    return sub_dir, code


def exp_sweep(cfg, art: Artifacts) -> dict:
    ec = cfg["experiment"]
    cases = ec.get("cases")
    if not cases or not isinstance(cases, list):
        raise ValueError("sweep requires experiment.cases, a list")
    workers = _num(ec, "workers", 2, kind=int)
    jobs = []
    for i, case in enumerate(cases):  # every case is checked before any runs
        try:
            if not isinstance(case, dict):
                raise ValueError(f"{case!r} is not a mapping")
            sub_cfg = _deep_update({**cfg, "experiment": {}}, case)
            name = sub_cfg["experiment"].get("name")
            if name not in [e for e in EXPERIMENTS if e != "sweep"]:
                raise ValueError(f"{name!r} is not a non-sweep experiment")
        except ValueError as err:
            raise ValueError(f"sweep case {i}: {err}") from None
        sub_dir = art.dir / f"case_{i:03d}"
        jobs.append((sub_cfg, str(sub_dir), True))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    codes = np.array([code for _, code in results])
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

#: the ``experiment`` keys each experiment reads, besides ``name``
EXPERIMENT_KEYS = {
    "asymptotic": {"initial"},
    "comparison": {"pairs", "t_end"},
    "sweep": {"cases", "workers"},
}


def _run_experiment(experiment: str, cfg: dict, out_dir: Path,
                    quiet: bool) -> int:
    art = Artifacts(out_dir, cfg, quiet)
    try:
        unread = sorted(set(cfg["experiment"]) - {"name"}
                        - EXPERIMENT_KEYS.get(experiment, set()))
        if unread:  # a stale or misspelt key fails before any solve
            raise ValueError(f"{experiment} reads no experiment key "
                             + ", ".join(map(repr, unread)))
        summary = EXPERIMENTS[experiment](cfg, art)
    except CheckFailure as err:
        art.write_summary({"passed": 0, "failure": str(err)})
        art.finish()
        art.say(f"CHECK FAILED: {err}" if err.code == EXIT_CHECK_FAILED
                else f"FAILED: {err}")
        return err.code
    except ValueError as err:
        art.say(f"configuration error: {err}")
        return EXIT_CONFIG
    except SOLVER_ERRORS as err:
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
        if config_path is not None and not Path(config_path).exists():
            raise FileNotFoundError(f"config not found: {config_path}")
        cfg = load_config(config_path)
        if seed is not None:
            cfg["seed"] = int(seed)
        cfg.setdefault("experiment", {})
        cfg["experiment"]["name"] = experiment
        target = Path(out_dir) if out_dir else Path(cfg["output"]["dir"])
    except (OSError, yaml.YAMLError, ValueError, KeyError) as err:
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    sys.exit(_run_experiment(experiment, cfg, target, quiet))


if __name__ == "__main__":
    main()
