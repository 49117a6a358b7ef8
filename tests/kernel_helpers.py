"""Kernel manipulations that only the tests need."""

from dataclasses import replace

import numpy as np

from frontlab.kernels import IteratedKernel, Kernel, iterated_kernels


def with_samples(kernel: Kernel, samples: np.ndarray) -> Kernel:
    """Kernel with replaced samples (crafting invalid kernels)."""
    return replace(kernel, samples=samples)


def iterated_kernel(kernel: Kernel, order: int) -> IteratedKernel:
    """N-fold self-convolution J^N on a stencil of radius N*R."""
    return next(ik for ik in iterated_kernels(kernel) if ik.order == order)


def iterate_iterated(ik: IteratedKernel, order: int) -> IteratedKernel:
    """Self-convolve an already-iterated kernel (associativity checks)."""
    samples = ik.samples.copy()
    for _ in range(order - 1):
        samples = np.convolve(samples, ik.samples) * ik.spacing
    return IteratedKernel(order=ik.order * order, spacing=ik.spacing,
                          samples=samples)


def direct_convolve(weighted: np.ndarray, u: np.ndarray, u_left: float,
                    u_right: float) -> np.ndarray:
    """Stencil sums of one lane in direct form, the reference for the FFT
    convolution."""
    k = (weighted.size - 1) // 2
    padded = np.concatenate([np.full(k, u_left), u, np.full(k, u_right)])
    return np.convolve(padded, weighted, mode="valid")
