"""Simulation and verification laboratory for nonlocal reaction-diffusion
fronts u_t = J*u - u + f(t, u) with time-heterogeneous ignition reactions."""

from .fields import FieldState, Grid, constant_field, smoothed_step
from .kernels import (Kernel, KernelError, build_kernel, convolve,
                      exponential_moment, positive_decay_rate)
from .reactions import (IgnitionNonlinearity, ReactionError,
                        make_default_ignition, make_ignition, max_slice,
                        min_slice, validate_hypotheses)
from .waves import TravelingWave, WaveError, solve_traveling_wave
from .evolve import (ApproxFrontRun, EvolveError, Stepper, Trajectory,
                     build_approx_front, evolve)
from .fronts import (FrontError, fit_exponential_tail, interface_width,
                     locate_level, steepness)
from .stability import (GammaFunction, PerturbationEnvelope,
                        StabilityError, StabilityParameters, best_shift,
                        comparison_test, fit_log_decay,
                        run_asymptotic_experiment, run_stability_experiment,
                        select_alpha, subsupersolution_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
