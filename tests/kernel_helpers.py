"""Kernel manipulations that only the tests need."""

from dataclasses import replace

import numpy as np

from frontlab.kernels import Kernel


def with_samples(kernel: Kernel, samples: np.ndarray) -> Kernel:
    """Kernel with replaced samples (crafting invalid kernels)."""
    return replace(kernel, samples=samples)


def direct_convolve(weighted: np.ndarray, u: np.ndarray, u_left: float,
                    u_right: float) -> np.ndarray:
    """Stencil sums of one lane in direct form, the reference for the FFT
    convolution."""
    k = (weighted.size - 1) // 2
    padded = np.concatenate([np.full(k, u_left), u, np.full(k, u_right)])
    return np.convolve(padded, weighted, mode="valid")
