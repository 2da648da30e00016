"""Temporal kernel fusion.

ConvStencil applies 3x temporal fusion to small kernels (composing three time
steps into one larger stencil) and the paper's Figure-6 comparison has
SparStencil do the same for fairness.  Composing two correlation stencils is
the full convolution of their dense kernels, so the fused kernel of ``t``
steps has diameter ``t*(k-1) + 1``.

The convolution is a shifted add over the nonzero taps of the step kernel,
taken in reverse C order, each output starting from ``+0``: the summation
order of a direct N-d correlation with the flipped kernel.  The tests check
every catalog kernel's fused weights against a reference direct convolution:
bit-identical in 2-D and 3-D, and within a few ULPs in 1-D, where the
reference sums its edge outputs with a BLAS dot product (fused multiply-adds
on FMA hosts).  Skipping zero taps adds nothing but ``+0`` and so changes no
bit: cancellation still leaves exact zeros, and the fused tap set is the same.
"""

from __future__ import annotations

import numpy as np

from repro.stencils.pattern import StencilPattern
from repro.util.validation import require, require_positive_int

__all__ = ["fuse_pattern", "fused_iterations"]


def fuse_pattern(pattern: StencilPattern, times: int) -> StencilPattern:
    """Return the stencil equivalent to applying ``pattern`` ``times`` in a row.

    The fused pattern keeps zero-weight positions out of its tap set, so any
    sparsity created by cancellation is preserved for the conversion stage.
    """
    require_positive_int(times, "times")
    if times == 1:
        return pattern
    dense = pattern.to_dense()
    fused = dense
    for _ in range(times - 1):
        fused = _convolve_full(fused, dense)
    fused_pattern = StencilPattern.from_dense(
        fused, name=f"{pattern.name}-x{times}")
    fused_pattern.metadata.update(pattern.metadata)
    fused_pattern.metadata["temporal_fusion"] = times
    return fused_pattern


def _convolve_full(volume: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full N-d convolution of ``volume`` with the smaller ``kernel``.

    Each output element sums its products in reverse C order of the kernel
    taps, starting from ``+0`` (see the module docstring).
    """
    out = np.zeros(tuple(v + k - 1 for v, k in zip(volume.shape, kernel.shape)))
    for index in np.argwhere(kernel)[::-1]:
        window = tuple(slice(i, i + n) for i, n in zip(index, volume.shape))
        out[window] += volume * kernel[tuple(index)]
    return out


def fused_iterations(iterations: int, times: int) -> tuple[int, int]:
    """Split ``iterations`` into ``(fused_sweeps, leftover_plain_sweeps)``."""
    require_positive_int(iterations, "iterations")
    require_positive_int(times, "times")
    return iterations // times, iterations % times
