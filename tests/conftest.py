"""Shared fixtures: the default problem, solved waves, and front runs.

The heavy fixtures (long reference run, sandwich experiment) are session
scoped so the acceptance tests and unit tests share one computation.
"""

import numpy as np
import pytest

from frontlab.evolve import build_approx_front, evolve
from frontlab.fields import Grid
from frontlab.kernels import build_kernel
from frontlab.reactions import make_default_ignition, min_slice, max_slice
from frontlab.stability import select_alpha
from frontlab.waves import solve_traveling_wave

DT = 0.05
S_SEED = -30.0
T_END = 60.0


@pytest.fixture(scope="session")
def kernel():
    return build_kernel("gaussian", spacing=DT, tail_tolerance=1e-6,
                        sigma=1.0)


@pytest.fixture(scope="session")
def f():
    return make_default_ignition()


@pytest.fixture(scope="session")
def wave_grid():
    return Grid(-60.0, 60.0, 2401)


@pytest.fixture(scope="session")
def tw_min(kernel, f, wave_grid):
    return solve_traveling_wave(kernel, min_slice(f), wave_grid)


@pytest.fixture(scope="session")
def tw_max(kernel, f, wave_grid):
    return solve_traveling_wave(kernel, max_slice(f), wave_grid)


@pytest.fixture(scope="session")
def front_run(kernel, f, tw_min):
    """Heterogeneous approximating front: seeded at s=-30, run to t=60,
    with the spatial-derivative co-state at cadence 1."""
    grid = Grid(-50.0, 50.0, 2001)
    return build_approx_front(kernel, f, s=S_SEED, grid=grid, dt=DT,
                              profile_fn=tw_min.profile_fn(),
                              derivative_fn=tw_min.derivative_fn(),
                              theta=f.theta, t_end=T_END,
                              snapshot_every=1.0)


@pytest.fixture(scope="session")
def sparams(front_run, kernel, f):
    return select_alpha(front_run, kernel, f, t_from=S_SEED + 20.0)


@pytest.fixture(scope="session")
def x_track(front_run):
    """The front run's theta crossing, linear in t between snapshots."""
    ts, xs = front_run.interface_track()
    return lambda t: float(np.interp(t, ts, xs))


@pytest.fixture(scope="session")
def fine_traj(front_run, kernel, f):
    """Snapshot cadence 0.1 over [30, 50] for time-difference residuals."""
    state = front_run.trajectory.at_time(30.0)
    return evolve(state, kernel, f, 50.0, DT, snapshot_every=0.1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
