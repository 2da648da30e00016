"""Domain decomposition for sharded multi-device execution.

A :class:`GridPartition` tiles a grid's *output* region into a Cartesian grid
of shards.  Each shard owns one contiguous output box plus a ghost region of
input cells around it, so a stencil sweep over the shard's subgrid computes
the shard's outputs from purely local data — the classic MPI-style
decomposition (pascal's ``sa2d_mpi``/``grid2d`` stacked halo exchange;
xdsl's ``distribute-stencil{strategy=2d-grid}`` lowering).

Ghost widths are *per face*.  A face between two distinct shards (including
the periodic wrap between the two edge shards of an axis) is an **exchanged
face** and carries a deep ghost region of ``radius + (halo_depth-1) * step``
cells; with ``halo_depth = k`` one halo exchange validates ``k`` consecutive
sweeps — the intervening sweeps recompute the ghost zone redundantly on
shrinking windows (communication-avoiding execution).  A face at a global
edge under ``dirichlet``/``reflect``, or a periodic wrap onto the shard
itself (single shard on the axis), is a **boundary face**: it keeps the
classic ``radius``-wide ghost ring, refreshed locally every sweep exactly
like :func:`repro.stencils.boundary.apply_boundary`.

Three invariants make sharded execution bit-identical to a single-device
sweep:

* shard boundaries are *aligned* to the layout-morphing tile extents ``r``,
  so every global output tile belongs wholly to one shard and the
  shard-local tiling reproduces the global tiling column for column;
* the deep-halo shrink ``step`` along each axis is the smallest multiple of
  the tile extent that covers the stencil radius, so every redundant-compute
  window origin stays congruent to the global tiling (a window shifted by a
  non-tile-multiple computes different floating-point associations);
* halo refresh is pure copying — ghost cells are overwritten with the
  neighbouring shards' freshly computed interiors (dimension-ordered, so
  corner cells propagate through two copies exactly like stacked 1D
  exchanges).

The partition carries the grid's boundary condition
(:mod:`repro.stencils.boundary`) and realises it distributively at the
global edges: under ``dirichlet`` the global halo stays fixed; under
``periodic`` the exchange wraps around — the shard at the low edge of an
axis receives from the shard at the high edge (possibly itself when the
axis has a single shard); under ``reflect`` each edge shard mirrors its own
first/last interior cells into the out-facing halo, and ``neumann(flux=...)``
adds the same affine bias (:func:`~repro.stencils.boundary.neumann_bias`) to
the mirrored strip.  All of them run inside the same dimension-ordered
stages, so the stacked-corner property (and with it bit-identity to the
single-device :func:`~repro.stencils.boundary.apply_boundary` fill) holds
for every condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stencils.boundary import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    REFLECT,
    axis_slice as _axis_slice,
    boundary_flux,
    boundary_kind,
    neumann_bias,
    normalize_boundary,
)
from repro.util.arrays import ceil_div
from repro.util.validation import require, require_positive_int

__all__ = ["Shard", "GridPartition", "split_extent", "plan_shard_grid",
           "halo_steps"]


def split_extent(extent: int, count: int, align: int = 1,
                 minimum: int = 1) -> Tuple[int, ...]:
    """Split ``extent`` into ``count`` contiguous chunk lengths.

    Every chunk except the last is a multiple of ``align`` (the tile-alignment
    invariant above); all chunks are at least ``max(minimum, 1)`` long (the
    halo-exchange requirement: a chunk shorter than the ghost width would
    need halo data from beyond its immediate neighbour).  Raises when
    ``extent`` cannot accommodate that many chunks.
    """
    require_positive_int(extent, "extent")
    require_positive_int(count, "count")
    require_positive_int(align, "align")
    minimum = max(int(minimum), 1)
    if count == 1:
        require(extent >= minimum, f"extent {extent} shorter than minimum chunk "
                                   f"{minimum}")
        return (extent,)

    blocks = extent // align
    remainder = extent - blocks * align
    base, extra = divmod(blocks, count)
    chunks = [(base + (1 if i < extra else 0)) * align for i in range(count)]
    chunks[-1] += remainder
    require(all(c >= minimum for c in chunks),
            f"cannot split extent {extent} into {count} chunks of at least "
            f"{minimum} cells with alignment {align} — use fewer shards or a "
            f"shallower halo")
    return tuple(chunks)


def plan_shard_grid(out_shape: Sequence[int], n_shards: int) -> Tuple[int, ...]:
    """Factor ``n_shards`` over the grid axes, longest extents first.

    Deterministic greedy factorisation minimising the shard *surface* (and
    with it the halo traffic): each prime factor of ``n_shards`` (largest
    first) divides the axis whose per-shard extent is currently the largest
    — 4 shards on a square 2D grid become a 2x2 shard grid, while a long 1D
    grid takes all shards on its only axis.
    """
    out_shape = tuple(int(s) for s in out_shape)
    require_positive_int(n_shards, "n_shards")
    for s in out_shape:
        require_positive_int(s, "output extent")
    counts = [1] * len(out_shape)

    def prime_factors(n: int) -> List[int]:
        factors, p = [], 2
        while p * p <= n:
            while n % p == 0:
                factors.append(p)
                n //= p
            p += 1
        if n > 1:
            factors.append(n)
        return sorted(factors, reverse=True)

    for factor in prime_factors(n_shards):
        axis = max(range(len(out_shape)),
                   key=lambda ax: (out_shape[ax] / counts[ax], -ax))
        counts[axis] *= factor
    return tuple(counts)


def halo_steps(radius: int, align: Sequence[int]) -> Tuple[int, ...]:
    """Per-axis deep-halo shrink step: the smallest multiple of the tile
    alignment that covers the stencil radius.

    Redundant-compute windows shrink by one step per sweep, so the window
    origin stays congruent to the global layout tiling (the bit-identity
    requirement); with unit alignment the step degenerates to the paper's
    ``radius`` and ``halo_depth = k`` gives the classic ``k * radius`` ghost
    width.
    """
    require_positive_int(radius, "radius")
    return tuple(ceil_div(radius, int(a)) * int(a) for a in align)


@dataclass(frozen=True)
class Shard:
    """One shard of a partition: an output box plus its halo bookkeeping.

    ``out_start``/``out_stop`` are in *output* coordinates: output point ``j``
    along an axis reads input cells ``[j, j + 2*radius]`` and lands on grid
    cell ``j + radius``.  ``lo_ghost``/``hi_ghost`` are the per-axis ghost
    widths of the shard-local array (``radius`` on boundary faces, the deep
    width on exchanged faces; both default to ``radius`` for the classic
    ``halo_depth=1`` geometry).
    """

    index: Tuple[int, ...]
    out_start: Tuple[int, ...]
    out_stop: Tuple[int, ...]
    radius: int
    lo_ghost: Optional[Tuple[int, ...]] = None
    hi_ghost: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        ndim = len(self.out_start)
        if self.lo_ghost is None:
            object.__setattr__(self, "lo_ghost", (self.radius,) * ndim)
        if self.hi_ghost is None:
            object.__setattr__(self, "hi_ghost", (self.radius,) * ndim)

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.out_start, self.out_stop))

    @property
    def subgrid_shape(self) -> Tuple[int, ...]:
        """Extents of the shard-local array (outputs plus both ghosts)."""
        return tuple(s + lo + hi for s, lo, hi in
                     zip(self.out_shape, self.lo_ghost, self.hi_ghost))

    @property
    def virtual_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Global grid coordinates the shard-local array covers.

        Deep periodic wrap ghosts extend *beyond* the physical grid (negative
        or ``>= extent`` coordinates denote periodic images); see
        :meth:`GridPartition.extract` for the wrap-aware mapping.
        """
        return tuple((a + self.radius - lo, b + self.radius + hi)
                     for a, b, lo, hi in zip(self.out_start, self.out_stop,
                                             self.lo_ghost, self.hi_ghost))

    @property
    def subgrid_slices(self) -> Tuple[slice, ...]:
        """Where the shard-local array sits inside the global grid (only
        valid when every ghost stays inside the physical grid — always true
        for ``halo_depth=1`` and for dirichlet/reflect partitions)."""
        return tuple(slice(a, b) for a, b in self.virtual_ranges)

    @property
    def interior_local(self) -> Tuple[slice, ...]:
        """The shard's owned outputs, in shard-local coordinates."""
        return tuple(slice(lo, lo + s)
                     for lo, s in zip(self.lo_ghost, self.out_shape))

    @property
    def interior_global(self) -> Tuple[slice, ...]:
        """The shard's owned outputs, in global grid coordinates."""
        return tuple(slice(a + self.radius, b + self.radius)
                     for a, b in zip(self.out_start, self.out_stop))


@dataclass(frozen=True)
class _ExchangeOp:
    """One precomputed halo-refresh copy (the per-sweep hot loop runs these
    without touching ``np.ravel_multi_index`` or rebuilding slices)."""

    kind: str                      # "copy" | "mirror"
    dst: int                       # flat shard index receiving the strip
    dst_slices: Tuple[slice, ...]
    src: int                       # flat shard index supplying the strip
    src_slices: Tuple[slice, ...]
    axis: int
    remote_elements: int           # elements billed as interconnect traffic
    local: bool                    # True for mirror fills and self copies
    bias: Optional[np.ndarray] = None  # neumann affine term added post-flip


@dataclass(frozen=True)
class GridPartition:
    """A Cartesian decomposition of one grid for a stencil of ``radius``.

    ``halo_depth`` is the communication-avoiding depth ``k``: exchanged faces
    carry ``radius + (k-1)*step`` ghost cells and one
    :meth:`exchange_halos` validates ``k`` consecutive sweeps.  ``halo_step``
    is the per-axis window shrink per sweep (see :func:`halo_steps`).
    """

    grid_shape: Tuple[int, ...]
    radius: int
    shard_grid: Tuple[int, ...]
    shards: Tuple[Shard, ...]  #: row-major over ``shard_grid``
    boundary: str = DIRICHLET
    halo_depth: int = 1
    halo_step: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.halo_step is None:
            object.__setattr__(self, "halo_step",
                               (self.radius,) * len(self.grid_shape))

    @staticmethod
    def build(grid_shape: Sequence[int], radius: int,
              shard_grid: Sequence[int] | int,
              align: Sequence[int] | None = None,
              boundary: str = DIRICHLET,
              halo_depth: int = 1) -> "GridPartition":
        """Partition ``grid_shape`` for a stencil of ``radius``.

        Parameters
        ----------
        shard_grid:
            Shards per axis, or a total shard count to be factored over the
            axes by :func:`plan_shard_grid`.
        align:
            Optional per-axis chunk alignment (the layout tile extents ``r``);
            required for bit-identical sharded execution.
        boundary:
            Boundary condition the exchange realises at the global edges
            (``"dirichlet"`` / ``"periodic"`` / ``"reflect"``).
        halo_depth:
            Deep-halo depth ``k``; raises when the geometry cannot support
            it (use :meth:`max_halo_depth` to clamp first).
        """
        grid_shape = tuple(int(s) for s in grid_shape)
        require_positive_int(radius, "radius")
        require_positive_int(halo_depth, "halo_depth")
        out_shape = tuple(s - 2 * radius for s in grid_shape)
        require(all(s > 0 for s in out_shape),
                f"grid {grid_shape} too small for stencil radius {radius}")
        if isinstance(shard_grid, (int, np.integer)):
            shard_grid = plan_shard_grid(out_shape, int(shard_grid))
        shard_grid = tuple(int(c) for c in shard_grid)
        require(len(shard_grid) == len(grid_shape),
                f"shard grid {shard_grid} has {len(shard_grid)} axes for a "
                f"{len(grid_shape)}D grid")
        if align is None:
            align = (1,) * len(grid_shape)
        align = tuple(int(a) for a in align)
        require(len(align) == len(grid_shape),
                f"align {align} has {len(align)} axes for a "
                f"{len(grid_shape)}D grid")
        boundary = normalize_boundary(boundary)

        step = halo_steps(radius, align)
        deep = tuple(radius + (halo_depth - 1) * s for s in step)
        if halo_depth > 1:
            for ax, count in enumerate(shard_grid):
                if count > 1 and boundary == PERIODIC:
                    require(out_shape[ax] % align[ax] == 0,
                            f"deep halos need the output extent "
                            f"{out_shape[ax]} on periodic axis {ax} to be a "
                            f"multiple of the tile alignment {align[ax]} "
                            f"(wrap-image windows must stay tile-congruent)")

        # exchanged faces need the neighbour to own at least the deep ghost
        # width; single-shard axes only ever fill radius-wide boundary faces
        chunks = [split_extent(out, count, align=a,
                               minimum=deep[ax] if count > 1 else radius)
                  for ax, (out, count, a)
                  in enumerate(zip(out_shape, shard_grid, align))]
        starts = [np.concatenate(([0], np.cumsum(c)[:-1])).astype(int)
                  for c in chunks]

        def face_width(axis: int, index: Tuple[int, ...], direction: int) -> int:
            """Ghost width of one face: deep when a *different* shard
            supplies it, radius for boundary faces and self-wraps."""
            count = shard_grid[axis]
            pos = index[axis] + direction
            if 0 <= pos < count:
                return deep[axis]
            if boundary == PERIODIC and count > 1:
                return deep[axis]   # wrap partner is a distinct shard
            return radius           # fixed / mirrored / self-wrap ring

        shards = []
        for index in np.ndindex(*shard_grid):
            index = tuple(index)
            out_start = tuple(int(starts[ax][i]) for ax, i in enumerate(index))
            out_stop = tuple(int(starts[ax][i] + chunks[ax][i])
                             for ax, i in enumerate(index))
            lo = tuple(face_width(ax, index, -1) for ax in range(len(index)))
            hi = tuple(face_width(ax, index, +1) for ax in range(len(index)))
            shards.append(Shard(index=index, out_start=out_start,
                                out_stop=out_stop, radius=radius,
                                lo_ghost=lo, hi_ghost=hi))
        return GridPartition(grid_shape=grid_shape, radius=radius,
                             shard_grid=shard_grid, shards=tuple(shards),
                             boundary=boundary, halo_depth=halo_depth,
                             halo_step=step)

    @staticmethod
    def max_halo_depth(grid_shape: Sequence[int], radius: int,
                       shard_grid: Sequence[int] | int,
                       align: Sequence[int] | None = None,
                       boundary: str = DIRICHLET) -> int:
        """Deepest ``halo_depth`` this geometry supports.

        Three constraints bound the depth: every shard on a multi-shard axis
        must own at least the deep ghost width (it supplies that many cells
        to its neighbours), windows must shrink in tile-congruent steps, and
        periodic wrap images must land on tile-congruent origins (otherwise
        redundant recompute of the wrapped cells would diverge bitwise from
        the owner's compute).  Returns at least 1 (the classic geometry) —
        infeasible *partitions* still raise from :meth:`build`.
        """
        grid_shape = tuple(int(s) for s in grid_shape)
        require_positive_int(radius, "radius")
        out_shape = tuple(s - 2 * radius for s in grid_shape)
        require(all(s > 0 for s in out_shape),
                f"grid {grid_shape} too small for stencil radius {radius}")
        if isinstance(shard_grid, (int, np.integer)):
            shard_grid = plan_shard_grid(out_shape, int(shard_grid))
        shard_grid = tuple(int(c) for c in shard_grid)
        if align is None:
            align = (1,) * len(grid_shape)
        align = tuple(int(a) for a in align)
        boundary = normalize_boundary(boundary)

        step = halo_steps(radius, align)
        depth = None
        for ax, count in enumerate(shard_grid):
            if count <= 1:
                continue
            if boundary == PERIODIC and out_shape[ax] % align[ax] != 0:
                return 1
            chunks = split_extent(out_shape[ax], count, align=align[ax],
                                  minimum=radius)
            # radius + (k-1)*step <= smallest chunk
            k_ax = 1 + (min(chunks) - radius) // step[ax]
            depth = k_ax if depth is None else min(depth, k_ax)
        return max(1, depth) if depth is not None else 1

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @cached_property
    def _flat_strides(self) -> Tuple[int, ...]:
        """Row-major strides of ``shard_grid`` — the precomputed
        neighbour -> flat-index lookup (replaces per-strip
        ``np.ravel_multi_index`` calls in the exchange hot loop)."""
        strides = []
        acc = 1
        for count in reversed(self.shard_grid):
            strides.append(acc)
            acc *= count
        return tuple(reversed(strides))

    def flat_index(self, index: Sequence[int]) -> int:
        """Flat (row-major) position of a shard-grid index."""
        return int(sum(i * s for i, s in zip(index, self._flat_strides)))

    def shard_at(self, index: Sequence[int]) -> Shard:
        return self.shards[self.flat_index(tuple(index))]

    def neighbors(self, shard: Shard) -> Dict[Tuple[int, int], Shard]:
        """Adjacent shards keyed by ``(axis, direction)`` with direction ±1.

        Pure grid adjacency — periodic wrap partners are *not* included
        here; :meth:`halo_source` resolves the shard that actually supplies
        a given halo under the partition's boundary condition.
        """
        found = {}
        for axis in range(self.ndim):
            for direction in (-1, +1):
                pos = shard.index[axis] + direction
                if 0 <= pos < self.shard_grid[axis]:
                    index = list(shard.index)
                    index[axis] = pos
                    found[(axis, direction)] = self.shard_at(index)
        return found

    def halo_source(self, shard: Shard, axis: int,
                    direction: int) -> Optional[Shard]:
        """The shard supplying ``shard``'s ``(axis, direction)`` halo.

        An in-range neighbour always supplies.  Across the global edge the
        answer depends on the boundary condition: ``periodic`` wraps to the
        shard at the opposite end of the axis (the shard itself when the
        axis has a single shard); ``dirichlet`` and ``reflect`` have no
        supplying shard there (the halo is fixed, or mirrored locally by
        :meth:`exchange_halos`).
        """
        pos = shard.index[axis] + direction
        count = self.shard_grid[axis]
        if not (0 <= pos < count):
            if self.boundary != PERIODIC:
                return None
            pos %= count
        index = list(shard.index)
        index[axis] = pos
        return self.shards[self.flat_index(
            tuple(pos if ax == axis else i
                  for ax, i in enumerate(shard.index)))]

    def exchanged_faces(self, shard: Shard) -> Tuple[Tuple[int, int], ...]:
        """``(axis, direction)`` faces supplied by a *different* shard —
        the faces that carry deep ghosts and define the rim region."""
        faces = []
        for axis in range(self.ndim):
            for direction in (-1, +1):
                source = self.halo_source(shard, axis, direction)
                if source is not None and source.index != shard.index:
                    faces.append((axis, direction))
        return tuple(faces)

    # ------------------------------------------------------------------ #
    # redundant-compute windows
    # ------------------------------------------------------------------ #
    def window(self, shard: Shard, mult: int) -> Tuple[slice, ...]:
        """Shard-local slices of the sweep window ``mult`` steps before the
        next exchange.

        The window's *computed* region is the owned interior extended by
        ``mult * halo_step`` into every exchanged face's ghost zone (the
        redundant ghost-zone compute that buys ``mult`` more sweeps without
        communication), plus the ``radius``-wide input ring the stencil
        reads.  ``mult = 0`` with ``halo_depth = 1`` is the whole local
        array — the classic geometry.
        """
        require(0 <= mult < self.halo_depth,
                f"window mult {mult} out of range for halo depth "
                f"{self.halo_depth}")
        slices = []
        for axis in range(self.ndim):
            lo_ext = self._face_extension(shard, axis, -1, mult)
            hi_ext = self._face_extension(shard, axis, +1, mult)
            lo = shard.lo_ghost[axis]
            out = shard.out_shape[axis]
            slices.append(slice(lo - lo_ext - self.radius,
                                lo + out + hi_ext + self.radius))
        return tuple(slices)

    def window_out_shape(self, shard: Shard, mult: int) -> Tuple[int, ...]:
        """Computed-output extents of :meth:`window` (window minus the ring)."""
        return tuple((s.stop - s.start) - 2 * self.radius
                     for s in self.window(shard, mult))

    def window_writeback(self, shard: Shard, mult: int) -> Tuple[slice, ...]:
        """Shard-local slices the window's computed outputs land in."""
        return tuple(slice(w.start + self.radius, w.stop - self.radius)
                     for w in self.window(shard, mult))

    def _face_extension(self, shard: Shard, axis: int, direction: int,
                        mult: int) -> int:
        source = self.halo_source(shard, axis, direction)
        if source is None or source.index == shard.index:
            return 0
        return mult * self.halo_step[axis]

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #
    def extract(self, data: np.ndarray) -> List[np.ndarray]:
        """Copy each shard's subgrid (interior + ghosts) out of ``data``.

        Deep periodic wrap ghosts cover virtual coordinates beyond the
        physical grid; they are filled from the periodic interior image
        (``data``'s own boundary ring already matches the first ``radius``
        image cells, so the mapping is exact for any ghost width).  Each
        local array is a fresh C-contiguous float64 buffer filled by the
        precomputed slab copies of :attr:`_extract_blocks` — subgrids of
        neighbouring shards overlap, so a view would alias neighbours'
        interiors and corrupt the sweep.
        """
        require(tuple(data.shape) == self.grid_shape,
                f"data shape {tuple(data.shape)} does not match the partition "
                f"grid {self.grid_shape}")
        locals_ = []
        for shape, blocks in self._extract_blocks:
            local = np.empty(shape, dtype=np.float64)
            for dst, src in blocks:
                local[dst] = data[src]
            locals_.append(local)
        return locals_

    @cached_property
    def _extract_blocks(self) -> Tuple[
            Tuple[Tuple[int, ...],
                  Tuple[Tuple[Tuple[slice, ...], Tuple[slice, ...]], ...]],
            ...]:
        """Per shard: the local array's shape and its ``(dst, src)`` block
        copies out of the global grid.

        Along each axis the shard's virtual range splits into a few runs
        that are contiguous in the physical grid — the in-range coordinates
        plus each periodic wrap image of the interior (see
        :meth:`_axis_runs`); the blocks are the product of those runs, so
        :meth:`extract` builds no index array and does no fancy indexing.
        """
        plans = []
        for shard in self.shards:
            runs = [self._axis_runs(start, stop, extent)
                    for (start, stop), extent
                    in zip(shard.virtual_ranges, self.grid_shape)]
            blocks = tuple(
                (tuple(slice(dst, dst + length) for dst, _, length in block),
                 tuple(slice(src, src + length) for _, src, length in block))
                for block in itertools.product(*runs))
            plans.append((shard.subgrid_shape, blocks))
        return tuple(plans)

    def _axis_runs(self, start: int, stop: int,
                   extent: int) -> List[Tuple[int, int, int]]:
        """``(local start, grid start, length)`` runs covering the virtual
        coordinates ``[start, stop)`` of one axis of ``extent`` cells.

        An in-range coordinate reads itself; one beyond the grid (a deep
        periodic wrap ghost) reads its periodic interior image.  A run ends
        wherever the next coordinate's source is not the next grid cell.
        """
        interior = extent - 2 * self.radius
        runs: List[List[int]] = []
        for local, coord in enumerate(range(start, stop)):
            source = coord if 0 <= coord < extent \
                else self.radius + (coord - self.radius) % interior
            if runs and runs[-1][1] + runs[-1][2] == source:
                runs[-1][2] += 1
            else:
                runs.append([local, source, 1])
        return [tuple(run) for run in runs]

    def assemble(self, locals_: Sequence[np.ndarray],
                 out: np.ndarray) -> np.ndarray:
        """Write every shard's interior into ``out`` in place; returns it.

        ``out`` supplies the global boundary ring — under Dirichlet that is
        the final answer (the ring is held constant, exactly like the
        single-device executor); under ``periodic`` / ``reflect`` the
        executor refreshes the assembled ring from the interior with
        :func:`repro.stencils.boundary.apply_boundary` afterwards.  The
        caller owns ``out``: pass a copy to keep the original grid.
        """
        require(len(locals_) == self.n_shards,
                f"{len(locals_)} local arrays for {self.n_shards} shards")
        for shard, local in zip(self.shards, locals_):
            out[shard.interior_global] = local[shard.interior_local]
        return out

    @cached_property
    def _exchange_ops(self) -> Tuple[_ExchangeOp, ...]:
        """The full halo refresh as a precomputed op list.

        Axes appear in increasing order and every strip spans the full local
        extent of all *other* axes (ghosts included), so corner cells receive
        diagonal neighbours' values through two copies — the stacked exchange
        of ``sa2d_mpi``.  Within one axis stage, reads touch only interior
        cells along that axis and writes touch only ghost slabs, so the stage
        order inside an axis does not matter.  Precomputing the list removes
        all index arithmetic (flat-index lookups, slice construction) from
        the per-exchange hot loop.
        """
        ops: List[_ExchangeOp] = []
        for axis in range(self.ndim):
            for flat, shard in enumerate(self.shards):
                out_len = shard.out_shape[axis]
                lo = shard.lo_ghost[axis]
                local_len = lo + out_len + shard.hi_ghost[axis]
                for direction in (-1, +1):
                    width = shard.lo_ghost[axis] if direction < 0 \
                        else shard.hi_ghost[axis]
                    if direction < 0:
                        dst = _axis_slice(self.ndim, axis, 0, width)
                    else:
                        dst = _axis_slice(self.ndim, axis,
                                          local_len - width, local_len)
                    neighbor = self.halo_source(shard, axis, direction)
                    if neighbor is None:
                        if boundary_kind(self.boundary) in (REFLECT, NEUMANN):
                            # mirror own interior into the out-facing halo,
                            # plus the affine flux bias for a neumann wall
                            flux = boundary_flux(self.boundary)
                            if direction < 0:
                                src = _axis_slice(self.ndim, axis,
                                                  lo, lo + width)
                                side = "low"
                            else:
                                src = _axis_slice(
                                    self.ndim, axis,
                                    lo + out_len - width, lo + out_len)
                                side = "high"
                            bias = None
                            if flux != 0.0:
                                bias = neumann_bias(self.ndim, axis, width,
                                                    flux, side=side)
                            ops.append(_ExchangeOp(
                                kind="mirror", dst=flat, dst_slices=dst,
                                src=flat, src_slices=src, axis=axis,
                                remote_elements=0, local=True, bias=bias))
                        continue  # dirichlet: halo stays fixed
                    src_flat = self.flat_index(neighbor.index)
                    n_lo = neighbor.lo_ghost[axis]
                    n_len = neighbor.out_shape[axis]
                    if direction < 0:
                        # neighbour's last `width` interior cells -> low halo
                        src = _axis_slice(self.ndim, axis,
                                          n_lo + n_len - width, n_lo + n_len)
                    else:
                        # neighbour's first `width` interior cells -> high halo
                        src = _axis_slice(self.ndim, axis, n_lo, n_lo + width)
                    remote = src_flat != flat
                    strip = list(shard.subgrid_shape)
                    strip[axis] = width
                    ops.append(_ExchangeOp(
                        kind="copy", dst=flat, dst_slices=dst,
                        src=src_flat, src_slices=src, axis=axis,
                        remote_elements=int(np.prod(strip)) if remote else 0,
                        local=not remote))
        return tuple(ops)

    @cached_property
    def _local_refresh_ops(self) -> Tuple[_ExchangeOp, ...]:
        """The boundary-face subset of :attr:`_exchange_ops` — reflect
        mirrors and periodic self-wrap copies, the per-sweep refresh that
        keeps non-exchange sweeps bit-identical to the single-device
        :func:`~repro.stencils.boundary.apply_boundary` fill."""
        return tuple(op for op in self._exchange_ops if op.local)

    def _run_ops(self, locals_: Sequence[np.ndarray],
                 ops: Sequence[_ExchangeOp]) -> int:
        elements = 0
        for op in ops:
            if op.kind == "mirror":
                strip = np.flip(locals_[op.src][op.src_slices], axis=op.axis)
                if op.bias is not None:
                    strip = strip + op.bias
                locals_[op.dst][op.dst_slices] = strip
            else:
                locals_[op.dst][op.dst_slices] = \
                    locals_[op.src][op.src_slices]
            elements += op.remote_elements
        return elements

    def exchange_halos(self, locals_: Sequence[np.ndarray]) -> int:
        """Refresh every shard's ghost cells under the boundary condition.

        Runs the precomputed stacked exchange (see :attr:`_exchange_ops`):
        exchanged faces receive their full deep ghost width from the
        supplying shard, boundary faces follow :attr:`boundary` —
        ``dirichlet`` holds the out-facing halo fixed, ``periodic``
        exchanges across the edge with the wrap-around shard (the same copy
        geometry as an interior exchange) and ``reflect`` /
        ``neumann(flux=...)`` mirror the shard's own first/last ``radius``
        interior cells into the halo (plus the affine flux bias).  The
        stages mirror :func:`repro.stencils.boundary.apply_boundary`
        exactly, which keeps sharded sweeps bit-identical to single-device
        ones.

        Returns the number of grid *elements* copied between distinct shards
        (the executor converts this to bytes/time with the device data type);
        local mirror fills and single-shard wrap copies are free.
        """
        require(len(locals_) == self.n_shards,
                f"{len(locals_)} local arrays for {self.n_shards} shards")
        return self._run_ops(locals_, self._exchange_ops)

    def refresh_local_boundaries(self, locals_: Sequence[np.ndarray]) -> None:
        """Refresh only the locally supplied faces (reflect mirrors and
        periodic self-wraps) — the between-sweep fill inside a deep-halo
        round, where exchanged faces live off redundant compute instead."""
        require(len(locals_) == self.n_shards,
                f"{len(locals_)} local arrays for {self.n_shards} shards")
        self._run_ops(locals_, self._local_refresh_ops)

    def received_elements_per_shard(self) -> Tuple[int, ...]:
        """Elements each shard receives in one full halo exchange.

        Strips span the shard's full extent along every non-exchange axis
        (ghosts included) — the same geometry :meth:`exchange_halos` copies —
        so the executor's interconnect model and the byte counter can never
        drift apart.
        """
        totals = [0] * self.n_shards
        for op in self._exchange_ops:
            totals[op.dst] += op.remote_elements
        return tuple(totals)

    def halo_elements_per_exchange(self) -> int:
        """Elements one full halo exchange moves (constant across sweeps)."""
        return sum(self.received_elements_per_shard())

    def messages_per_shard(self) -> Tuple[int, ...]:
        """Halo messages each shard receives per exchange: one per
        ``(axis, direction)`` whose supplying shard is a *different* shard
        (periodic wrap partners included; self-wraps and reflect mirrors are
        local copies, not messages)."""
        totals = [0] * self.n_shards
        for op in self._exchange_ops:
            if op.remote_elements > 0:
                totals[op.dst] += 1
        return tuple(totals)
