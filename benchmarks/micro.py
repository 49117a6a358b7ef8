"""Layer micro-timings on the default problem, through public functions.

The problem is the CLI default: a Gaussian kernel with sigma = 1 at spacing
0.05 (197 taps), the default ignition reaction, and a front-like state on
2001 nodes.  Each figure is the median over samples of the mean time of one
call within a sample.  These figures are per-layer metrics, never gates.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from frontlab.evolve import Stepper
from frontlab.fields import Grid, smoothed_step
from frontlab.kernels import build_kernel, convolve
from frontlab.reactions import make_default_ignition

SAMPLES = 15


def _per_call_s(fn, calls: int) -> float:
    fn()
    means = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - t0) / calls)
    return statistics.median(means)


def measure() -> dict[str, float]:
    def make_kernel():
        return build_kernel("gaussian", spacing=0.05, tail_tolerance=1e-6,
                            sigma=1.0)

    kernel = make_kernel()
    f = make_default_ignition()
    state = smoothed_step(Grid(-50.0, 50.0, 2001), center=0.0, width=2.0)
    state_uw = state.with_(w=np.gradient(state.u, state.h))
    stepper = Stepper(kernel, f)
    dt = 0.05
    return {
        "kernels.convolve.us":
            1e6 * _per_call_s(lambda: convolve(kernel, state), 200),
        "reactions.eval.us":
            1e6 * _per_call_s(lambda: f.eval(0.5, state.u), 200),
        "reactions.dt_max.us": 1e6 * _per_call_s(f.dt_max, 200),
        "evolve.step_u.us":
            1e6 * _per_call_s(lambda: stepper.step(state, dt), 20),
        "evolve.step_uw.us":
            1e6 * _per_call_s(lambda: stepper.step(state_uw, dt), 10),
        "kernels.build_kernel.ms": 1e3 * _per_call_s(make_kernel, 50),
    }
