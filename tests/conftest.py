"""Shared fixtures: the default problem, solved waves, and front runs.

The kernel and the nonlinearity are the CLI's default problem, the kernel
sampled at the default grid's spacing.  The heavy fixtures are session
scoped so the acceptance tests and unit tests share one computation.  The
min wave and the front come from the CLI's per-process front memo, which
the acceptance tests' CLI runs read too; the max wave is solved once here.
"""

import numpy as np
import pytest
from hypothesis import settings

from frontlab import cli
from frontlab.evolve import evolve
from frontlab.fields import Grid
from frontlab.reactions import max_slice
from frontlab.stability import select_alpha
from trajectory_helpers import at_time

#: the tests' time step
DT = 0.05

# --hypothesis-profile=ci: a failing draw prints its @reproduce_failure line;
# the number of examples and the randomness are the default profile's
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def kernel():
    return cli.build_problem(cli.load_config(None))[0]


@pytest.fixture(scope="session")
def f():
    return cli.build_problem(cli.load_config(None))[1]


@pytest.fixture(scope="session")
def wave_grid():
    return Grid(-60.0, 60.0, 2401)


@pytest.fixture(scope="session")
def tw_min():
    return cli._front_run(cli.load_config(None))[0]


@pytest.fixture(scope="session")
def tw_max():
    return cli._wave(cli.load_config(None), max_slice)


@pytest.fixture(scope="session")
def front_run():
    """Heterogeneous approximating front of the default config: seeded at
    s=-30, run to t=60, with the spatial-derivative co-state at cadence 1."""
    return cli._front_run(cli.load_config(None))[1]


@pytest.fixture(scope="session")
def sparams(front_run, kernel, f):
    return select_alpha(front_run, kernel, f)


@pytest.fixture(scope="session")
def x_track(front_run):
    """The front run's theta crossing, linear in t between snapshots."""
    return lambda t: float(np.interp(t, front_run.times, front_run.track))


@pytest.fixture(scope="session")
def fine_traj(front_run, kernel, f):
    """Snapshot cadence 0.1 over [30, 50] for time-difference residuals."""
    state = at_time(front_run.trajectory, 30.0)
    return evolve(state, kernel, f, 50.0, DT, snapshot_every=0.1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
