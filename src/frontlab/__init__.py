"""Simulation and verification laboratory for nonlocal reaction-diffusion
fronts u_t = J*u - u + f(t, u) with time-heterogeneous ignition reactions."""

__version__ = "0.1.0"
