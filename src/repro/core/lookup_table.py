"""Table-driven memory mapping (§3.3, "Lookup Table").

Building the duplicate-free input matrix ``B'`` on the device requires every
thread block to translate (tile index, patch element) pairs into global
memory addresses — integer divisions and modulos that are slow on GPUs and
identical across blocks.  SparStencil precomputes them on the host:

* ``column_base[j]`` — flat offset of tile ``j``'s patch corner in the
  (padded) input grid;
* ``patch_offset[i]`` — flat offset of patch element ``i`` relative to the
  corner (constant across tiles).

``B'[i, j] = input.flat[column_base[j] + patch_offset[i]]`` then needs one
addition per element.  The same tables drive the simulated kernel here, so
they are functionally load-bearing, not just cost-model props: a sparse
plan's :class:`~repro.core.codegen.SlotTable` is compiled from
``patch_offset`` and the tile lattice ``column_base`` encodes, and
:func:`gather_b_matrix` builds ``B'`` for dense plans and as the reference
the slot-table sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.flatten import flatten_output_shape
from repro.core.morphing import MorphConfig
from repro.stencils.pattern import StencilPattern
from repro.util.arrays import ceil_div
from repro.util.validation import require, require_array

__all__ = ["LookupTable", "build_lookup_table", "gather_b_matrix"]


@dataclass(frozen=True)
class LookupTable:
    """Host-precomputed address tables for one (pattern, grid, layout) triple.

    Attributes
    ----------
    column_base: ``(n',)`` int32 flat offsets of each tile's patch corner.
    patch_offset: ``(k',)`` int32 flat offsets of each patch element.
    padded_grid_shape: input extents after tile padding (what the offsets
        index into).
    grid_shape: original input extents.
    tile_grid / out_shape / padded_out_shape: output geometry, recorded so the
        run loop can assemble results without re-deriving it.
    """

    column_base: np.ndarray
    patch_offset: np.ndarray
    padded_grid_shape: Tuple[int, ...]
    grid_shape: Tuple[int, ...]
    tile_grid: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    padded_out_shape: Tuple[int, ...]

    @property
    def k_prime(self) -> int:
        return int(self.patch_offset.shape[0])

    @property
    def n_prime(self) -> int:
        return int(self.column_base.shape[0])

    @property
    def nbytes(self) -> int:
        """Device bytes occupied by the tables (what Figure 8's LUT bar costs)."""
        return int(self.column_base.nbytes + self.patch_offset.nbytes)


def build_lookup_table(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    config: MorphConfig,
) -> LookupTable:
    """Precompute the address tables for ``pattern`` on ``grid_shape`` with ``config``."""
    require(len(config.r) == pattern.ndim,
            f"config has {len(config.r)} tile extents for a {pattern.ndim}D pattern")
    grid_shape = tuple(int(s) for s in grid_shape)
    k = pattern.diameter
    out_shape = flatten_output_shape(pattern, grid_shape)
    tile_grid = tuple(ceil_div(o, ri) for o, ri in zip(out_shape, config.r))
    padded_out_shape = tuple(t * ri for t, ri in zip(tile_grid, config.r))
    padded_grid_shape = tuple(po + k - 1 for po in padded_out_shape)

    patch_shape = config.patch_shape(k)
    strides = np.array(
        [int(np.prod(padded_grid_shape[axis + 1:])) for axis in range(pattern.ndim)],
        dtype=np.int64,
    )

    # Patch-relative offsets: row-major enumeration of the patch elements.
    patch_indices = np.stack(
        np.meshgrid(*[np.arange(s) for s in patch_shape], indexing="ij"), axis=-1
    ).reshape(-1, pattern.ndim)
    patch_offset = (patch_indices @ strides).astype(np.int32)

    # Tile corners: tile index times the tile extent along each axis.
    tile_indices = np.stack(
        np.meshgrid(*[np.arange(t) for t in tile_grid], indexing="ij"), axis=-1
    ).reshape(-1, pattern.ndim)
    corners = tile_indices * np.asarray(config.r, dtype=np.int64)
    column_base = (corners @ strides).astype(np.int32)

    return LookupTable(
        column_base=column_base,
        patch_offset=patch_offset,
        padded_grid_shape=padded_grid_shape,
        grid_shape=grid_shape,
        tile_grid=tile_grid,
        out_shape=out_shape,
        padded_out_shape=padded_out_shape,
    )


def gather_b_matrix(lut: LookupTable, data: np.ndarray) -> np.ndarray:
    """Build ``B'`` from the input grid using the precomputed tables.

    Equivalent to :func:`repro.core.morphing.morph_input_matrix` but driven
    entirely by the lookup tables (a single fancy-indexing gather), which is
    what the generated kernel's asynchronous-copy stage does.
    """
    data = require_array(data, "data")
    require(tuple(data.shape) == lut.grid_shape,
            f"grid shape {tuple(data.shape)} does not match the lookup table's "
            f"{lut.grid_shape}")
    pad = [(0, ps - s) for ps, s in zip(lut.padded_grid_shape, data.shape)]
    if any(hi for _, hi in pad):
        data = np.pad(data, pad, mode="constant")
    flat = np.ascontiguousarray(data, dtype=np.float64).ravel()
    gather = lut.patch_offset[:, None].astype(np.int64) + \
        lut.column_base[None, :].astype(np.int64)
    return flat[gather]
