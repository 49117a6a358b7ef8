"""Trajectory lookups and a reference crossing that only the tests need."""

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


def linear_crossing(field: FieldState, lam: float,
                    strict: bool = True) -> float:
    """The chord's root in the first cell where u falls below lam: the
    piecewise-linear crossing, whose position ripples with the profile's
    place in its cell (a reference, and a sabotage of locate_level)."""
    u, x = field.u, field.x
    j = int(np.argmax(u < lam))
    frac = (u[j - 1] - lam) / (u[j - 1] - u[j])
    return float(x[j - 1] + frac * (x[j] - x[j - 1]))
