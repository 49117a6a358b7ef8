"""Theorem checks that only the tests run: the operator residual of the
sub/super-solution candidates, and the Lipschitz estimate of u_x."""

from dataclasses import dataclass

import numpy as np

from frontlab.fields import FieldState, profile_interp
from frontlab.kernels import Kernel, convolve
from frontlab.stability import PerturbationEnvelope, StabilityParameters


@dataclass
class ResidualSeries:
    sup_residual: float  # max over (t,x) of the signed residual
    inf_residual: float


def subsupersolution_residual(snaps: list, x_track,
                              params: StabilityParameters,
                              env: PerturbationEnvelope, sign: int,
                              kernel: Kernel, f) -> ResidualSeries:
    """Operator residual of v = u(t, x-zeta(t)) -/+ q(t) Gamma(...) built
    from stored snapshots; v_t by centered time differences.

    sign=-1 builds the sub-solution candidate, sign=+1 the super-solution.
    The time difference needs snapshots at most 0.1/omega apart, far
    closer than the stability experiment's paired snapshots.
    """
    if env.eps > params.eps0 + 1e-15:
        raise ValueError("eps exceeds eps0")
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    times = np.array([s.t for s in snaps])
    if times.size < 3:
        raise ValueError("need at least 3 snapshots")
    cadence = float(np.max(np.diff(times)))
    if params.omega > 0 and cadence > 0.1 / params.omega + 1e-9:
        raise ValueError("snapshot cadence too sparse for the time "
                         "difference")
    x = snaps[0].x
    if not all(np.array_equal(s.x, x) for s in snaps):
        raise ValueError("snapshots must share one window")
    gamma = params.gamma

    def zeta(t):
        return env.zeta_minus(t) if sign < 0 else env.zeta_plus(t)

    def build_v(snap):
        z = zeta(snap.t)
        u_sh = profile_interp(snap)(x - z)
        g = gamma(x - z - x_track(snap.t))
        return u_sh + sign * env.q(snap.t) * g

    vs = [build_v(s) for s in snaps]  # each candidate once
    sup_res, inf_res = -np.inf, np.inf
    for j in range(1, len(snaps) - 1):
        v_t = (vs[j + 1] - vs[j - 1]) / (times[j + 1] - times[j - 1])
        v_here = vs[j]
        q_here = env.q(times[j])
        fld = FieldState(t=times[j], x=x, u=v_here,
                         u_left=1.0 + sign * q_here, u_right=0.0)
        rhs = convolve(kernel, fld) - v_here + f.eval(times[j], v_here)
        res = v_t - rhs
        sup_res = max(sup_res, float(np.max(res)))
        inf_res = min(inf_res, float(np.min(res)))
    return ResidualSeries(sup_residual=sup_res, inf_residual=inf_res)


def lipschitz_estimate(values: np.ndarray, h: float) -> float:
    """Max |difference quotient| over consecutive uniform-grid samples."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 samples")
    return float(np.max(np.abs(np.diff(values))) / h)
