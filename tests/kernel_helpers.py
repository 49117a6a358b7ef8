"""Kernel manipulations that only the tests need."""

from dataclasses import replace

import numpy as np

from frontlab.kernels import IteratedKernel, Kernel


def with_samples(kernel: Kernel, samples: np.ndarray) -> Kernel:
    """Kernel with replaced samples (crafting invalid kernels)."""
    return replace(kernel, samples=samples)


def iterate_iterated(ik: IteratedKernel, order: int) -> IteratedKernel:
    """Self-convolve an already-iterated kernel (associativity checks)."""
    samples = ik.samples.copy()
    for _ in range(order - 1):
        samples = np.convolve(samples, ik.samples) * ik.spacing
    return IteratedKernel(order=ik.order * order, spacing=ik.spacing,
                          samples=samples)
