"""Adaptive Layout Morphing (§3.1): flatten + Duplicates Crush.

The morphing stage turns a stencil sweep into a *matrix–matrix* product

    ``D = A' @ B'``,    A' ∈ R^{m' × k'},   B' ∈ R^{k' × n'}

where each column of ``B'`` is one duplicate-free input *tile patch* and each
row of ``A'`` places the kernel weights at the offsets of one output point
inside that tile.  With tile extents ``r = (r_1, …, r_d)`` (outputs per tile
along each axis — the paper's ``(r1, r2)`` for the two fastest axes):

* ``m' = prod(r_i)``                        (outputs per tile),
* ``k' = prod(k + r_i - 1)``                (patch elements per tile),
* ``n' = prod(ceil(out_i / r_i))``           (number of tiles).

``A'`` carries the *self-similar staircase* sparsity the Structured Sparsity
Conversion stage relies on: along every axis the kernel weights shift by the
output offset, so nonzeros of row ``a`` live in the band ``[a, a + k)`` at
each block level (Definition 4 / Figure 5(a) of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.flatten import flatten_output_shape
from repro.stencils.pattern import StencilPattern
from repro.util.arrays import ceil_div
from repro.util.validation import require, require_array, require_positive_int

__all__ = [
    "MorphConfig",
    "MorphResult",
    "morph_kernel_matrix",
    "morph_stencil",
    "morphed_shapes",
    "assemble_output",
]


@dataclass(frozen=True)
class MorphConfig:
    """Layout-morphing parameters: outputs per tile along each grid axis.

    ``r`` is ordered like the grid axes.  The paper's scalar parameters map to
    the two fastest-varying axes: ``r1`` is the tile extent along the last
    (contiguous) axis and ``r2`` along the second-to-last; leading axes of 3D
    grids keep a tile extent of 1.
    """

    r: Tuple[int, ...]

    def __post_init__(self) -> None:
        require(len(self.r) >= 1, "r must have at least one entry")
        for value in self.r:
            require_positive_int(value, "tile extent")
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))

    @staticmethod
    def from_r1_r2(ndim: int, r1: int, r2: int = 1) -> "MorphConfig":
        """Build a config from the paper's ``(r1, r2)`` scalars."""
        require_positive_int(ndim, "ndim")
        require_positive_int(r1, "r1")
        require_positive_int(r2, "r2")
        if ndim == 1:
            return MorphConfig(r=(r1,))
        if ndim == 2:
            return MorphConfig(r=(r2, r1))
        return MorphConfig(r=tuple([1] * (ndim - 2) + [r2, r1]))

    @property
    def r1(self) -> int:
        """Tile extent along the fastest (last) axis."""
        return self.r[-1]

    @property
    def r2(self) -> int:
        """Tile extent along the second-fastest axis (1 for 1D grids)."""
        return self.r[-2] if len(self.r) >= 2 else 1

    @property
    def outputs_per_tile(self) -> int:
        return int(np.prod(self.r))

    def patch_shape(self, k: int) -> Tuple[int, ...]:
        """Input patch extents per tile: ``k + r_i - 1`` along each axis."""
        return tuple(k + ri - 1 for ri in self.r)


@dataclass(frozen=True)
class MorphResult:
    """Operands and bookkeeping of one morphed stencil application.

    Attributes
    ----------
    a_prime: ``(m', k')`` staircase kernel matrix.
    b_prime: ``(k', n')`` duplicate-free input matrix (tile patches).
    config: the tile extents used.
    pattern_k: kernel diameter.
    out_shape: true (un-padded) output shape.
    padded_out_shape: output shape rounded up to whole tiles.
    tile_grid: number of tiles along each axis (``padded_out / r``).
    """

    a_prime: np.ndarray
    b_prime: np.ndarray
    config: MorphConfig
    pattern_k: int
    out_shape: Tuple[int, ...]
    padded_out_shape: Tuple[int, ...]
    tile_grid: Tuple[int, ...]

    @property
    def m_prime(self) -> int:
        return int(self.a_prime.shape[0])

    @property
    def k_prime(self) -> int:
        return int(self.a_prime.shape[1])

    @property
    def n_prime(self) -> int:
        return int(self.b_prime.shape[1])

    def compute(self) -> np.ndarray:
        """Evaluate ``A' @ B'`` and reassemble the output grid (crops padding)."""
        return assemble_output(self.a_prime @ self.b_prime, self)


def morphed_shapes(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    config: MorphConfig,
) -> Tuple[int, int, int]:
    """Return ``(m', k', n')`` for a morph without materialising operands.

    Used by the analytical performance model (Eq. 9) during layout search.
    """
    require(len(config.r) == pattern.ndim,
            f"config has {len(config.r)} tile extents for a {pattern.ndim}D pattern")
    k = pattern.diameter
    out_shape = flatten_output_shape(pattern, grid_shape)
    m_prime = config.outputs_per_tile
    k_prime = int(np.prod(config.patch_shape(k)))
    n_prime = int(np.prod([ceil_div(o, ri) for o, ri in zip(out_shape, config.r)]))
    return m_prime, k_prime, n_prime


def morph_kernel_matrix(pattern: StencilPattern, config: MorphConfig,
                        dtype=np.float64) -> np.ndarray:
    """Build the staircase kernel matrix ``A'`` for ``pattern`` and ``config``.

    ``A'[row, col]`` holds kernel weight ``K[p]`` where ``row`` enumerates the
    output offsets ``a`` inside a tile (row-major over ``r``) and ``col``
    enumerates patch positions ``a + p`` (row-major over ``k + r - 1``).
    Zero-weight taps of star/custom kernels stay zero, which is extra sparsity
    the conversion stage happily keeps.
    """
    require(len(config.r) == pattern.ndim,
            f"config has {len(config.r)} tile extents for a {pattern.ndim}D pattern")
    k = pattern.diameter
    radius = pattern.radius
    patch_shape = config.patch_shape(k)
    m_prime = config.outputs_per_tile
    k_prime = int(np.prod(patch_shape))

    # row a (row-major over r) takes tap p at patch position a + p + radius
    strides = np.array([int(np.prod(patch_shape[axis + 1:]))
                        for axis in range(pattern.ndim)], dtype=np.int64)
    tile_offsets = np.indices(config.r).reshape(pattern.ndim, m_prime)
    taps = np.asarray(pattern.offsets, dtype=np.int64) + radius
    cols = (strides @ tile_offsets)[:, None] + (taps @ strides)[None, :]

    a_prime = np.zeros((m_prime, k_prime), dtype=dtype)
    a_prime[np.arange(m_prime)[:, None], cols] = np.asarray(pattern.weights)
    return a_prime


def morph_input_matrix(
    pattern: StencilPattern,
    data: np.ndarray,
    config: MorphConfig,
) -> Tuple[np.ndarray, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Build the duplicate-free input matrix ``B'``.

    Returns ``(b_prime, out_shape, padded_out_shape, tile_grid)``.  When the
    output extents are not divisible by the tile extents, the input is padded
    with zeros on the high side; the padded outputs are cropped again by
    :func:`assemble_output`.
    """
    data = require_array(data, "data", ndim=pattern.ndim)
    data = np.asarray(data, dtype=np.float64)
    k = pattern.diameter
    out_shape = flatten_output_shape(pattern, data.shape)
    tile_grid = tuple(ceil_div(o, ri) for o, ri in zip(out_shape, config.r))
    padded_out_shape = tuple(t * ri for t, ri in zip(tile_grid, config.r))

    pad = [(0, (po - o)) for po, o in zip(padded_out_shape, out_shape)]
    if any(hi for _, hi in pad):
        data = np.pad(data, pad, mode="constant")

    patch_shape = config.patch_shape(k)
    windows = np.lib.stride_tricks.sliding_window_view(data, patch_shape)
    # Keep one window per tile: stride r_i along each axis.
    slices = tuple(slice(0, t * ri, ri) for t, ri in zip(tile_grid, config.r))
    tiles = windows[slices]
    n_prime = int(np.prod(tile_grid))
    k_prime = int(np.prod(patch_shape))
    b_prime = tiles.reshape(n_prime, k_prime).T.copy()
    return b_prime, out_shape, padded_out_shape, tile_grid


def morph_stencil(
    pattern: StencilPattern,
    data: np.ndarray,
    config: MorphConfig,
) -> MorphResult:
    """Run Adaptive Layout Morphing on one stencil application."""
    a_prime = morph_kernel_matrix(pattern, config)
    b_prime, out_shape, padded_out_shape, tile_grid = morph_input_matrix(
        pattern, data, config)
    return MorphResult(
        a_prime=a_prime,
        b_prime=b_prime,
        config=config,
        pattern_k=pattern.diameter,
        out_shape=out_shape,
        padded_out_shape=padded_out_shape,
        tile_grid=tile_grid,
    )


def assemble_output(d_matrix: np.ndarray, morph: MorphResult) -> np.ndarray:
    """Reassemble ``D = A' @ B'`` into the output grid and crop tile padding.

    ``D[row, col]`` holds the output at tile ``col`` (row-major over the tile
    grid) and intra-tile offset ``row`` (row-major over ``r``); the output
    grid index along each axis is ``tile_i * r_i + offset_i``.
    """
    d_matrix = require_array(d_matrix, "d_matrix", ndim=2)
    r = morph.config.r
    ndim = len(r)
    require(d_matrix.shape == (morph.m_prime, morph.n_prime),
            f"D has shape {d_matrix.shape}, expected "
            f"{(morph.m_prime, morph.n_prime)}")
    # (r_0..r_{d-1}, t_0..t_{d-1}) → interleave to (t_0, r_0, t_1, r_1, ...)
    shaped = d_matrix.reshape(*r, *morph.tile_grid)
    order = []
    for axis in range(ndim):
        order.extend([ndim + axis, axis])
    interleaved = shaped.transpose(order)
    padded = interleaved.reshape(morph.padded_out_shape)
    crop = tuple(slice(0, o) for o in morph.out_shape)
    return np.ascontiguousarray(padded[crop])
