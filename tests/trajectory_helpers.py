"""Trajectory lookups that only the tests need."""

import numpy as np

from frontlab.evolve import Trajectory
from frontlab.fields import FieldState


def at_time(traj: Trajectory, t: float) -> FieldState:
    """The snapshot stamped t, to 1e-9 relative; KeyError if none is."""
    ts = traj.times
    i = int(np.argmin(np.abs(ts - t)))
    if abs(ts[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"no snapshot at t={t}")
    return traj.snapshots[i]
