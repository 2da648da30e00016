"""Automatic Kernel Generation (§3.3): kernel plans, backends, CUDA-like source.

A :class:`KernelPlan` bundles everything the simulated device needs to run a
compiled stencil sweep — the converted kernel operand and its sparse
metadata, the lookup tables, the fragment/precision choice, the memory-traffic
estimate and the launch geometry — plus a rendered CUDA-C-like source string
mirroring the three-stage double-buffered pipeline the paper's generator
emits (async LUT-driven loads → sparse MMA with metadata → write-back).

The rendered source is illustrative output of the code generator (there is no
CUDA toolchain in this environment); the *plan* is what actually executes via
:mod:`repro.core.pipeline` on one of the registered **backends**.

Backends (the ctree-style frontend/backend split)
-------------------------------------------------
One kernel frontend — morphing, conversion, LUTs, the perf model — feeds
pluggable host execution backends, mirroring how the stencil_code lineage
hangs C/OpenMP/OpenCL transformers off a single kernel frontend:

* ``"tcu-sim"`` (the default) — the simulated sparse/dense Tensor-Core
  pipeline, and every golden fixture freezes its numerics.  For a
  ``sparse_mma`` plan, :func:`generate_kernel` folds the 2:4 metadata, the
  conversion's permutation and the LUTs into a :class:`SlotTable` once;
  each sweep then rounds the grid to the device precision once, multiplies
  every retained slot's weight into one contiguous run of that staged grid
  with fp32 accumulation, and scatters each fp32 row of ``D`` straight
  into the grid interior — the generated kernel's LUT-driven loads,
  without ever building ``B'``.  Slots whose weight is exactly zero (2:4
  padding) are skipped whenever the staged grid is finite, and a weight
  that many slots share is multiplied into the staged grid once per sweep;
  neither changes a bit.  Like the generated kernel's fixed operand
  buffers, every buffer a sweep uses is carved from one per-thread scratch
  arena, so a warm sweep allocates nothing.  Its launch timing is priced
  once per prepared plan from the operand shapes.  A ``dense_mma`` (fp64)
  plan gathers ``B'`` and runs the functional dense MMA every sweep.
* ``"numpy"`` — a vectorised fast path: the effective (fused) kernel is
  applied directly as one shifted-view accumulation per tap, in float64.
  Elementwise and shape-independent, so sharded runs stay bit-identical to
  single-device; per-sweep device timing/utilisation are billed from the
  plan's roofline estimate, so modelled metrics stay comparable across
  backends.

Every backend executes the *same* :class:`KernelPlan` (the compile pipeline
is backend-independent); what changes is how a sweep is carried out on the
host.  The backend name joins the compile fingerprint
(:mod:`repro.service.fingerprint`), so caches can never serve a plan across
backends, and it is recorded in :class:`repro.session.Provenance`.

Tolerance contract: ``tcu-sim`` carries the simulated device's precision
(fp16/bf16/tf32 operand rounding with fp32 accumulation); ``numpy``
computes in float64.  Outputs of any two backends therefore agree
within the *device* tolerance of the dtype (the ``ref_tol`` the golden suite
already uses against the float64 reference — e.g. ~2e-2 absolute for fp16
Table-2 workloads), and are bit-identical only where the math permits
(backends never reorder each other's summation).
"""

from __future__ import annotations

import abc
import math
import os
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.conversion import ConversionResult, convert_to_24
from repro.core.lookup_table import LookupTable, build_lookup_table
from repro.core.metadata import SparseMetadata, build_metadata
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.perf_model import PerfEstimate, estimate_layout
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.counters import derive_utilization
from repro.tcu.executor import LaunchResult, price_launch
from repro.tcu.spec import A100_SPEC, DataType, FragmentShape, GPUSpec, SPARSE_FRAGMENTS
from repro.tcu.timing import mma_count
from repro.util.validation import ValidationError, require, require_in

__all__ = [
    "KernelPlan",
    "SlotTable",
    "build_slot_table",
    "generate_kernel",
    "render_cuda_source",
    "StencilBackend",
    "TcuSimBackend",
    "NumpyBackend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "registered_backends",
]

#: Per-thread register budgets of the generated kernels.  The sparse kernel
#: is register-lean (the compressed operand and metadata halve the A-fragment
#: footprint); the dense-TCU variant (ConvStencil-style execution) carries
#: roughly the register budget reported for hand-written dense-TCU stencil
#: kernels.  Recorded on the plan so executors carry no engine-specific
#: magic numbers.
SPARSE_KERNEL_REGISTERS = 32
DENSE_KERNEL_REGISTERS = 52

#: fp32 bit patterns of the fp16 range edges: the smallest normal
#: (``2**-14``) and the largest finite value (65504).
_FP16_MIN_NORMAL_BITS = 0x38800000
_FP16_MAX_BITS = 0x477FE000

#: Share of fallback lanes above which :func:`_round_fp16` casts the whole
#: array with numpy instead.  Picking the lanes out and back costs more per
#: lane than the casts save once about 60% of a 512² grid falls back
#: (fp16-subnormal or overflowing values); past that share the whole-array
#: casts are cheaper.
_FP16_FALLBACK_SHARE = 0.6


#: Grid elements :meth:`SlotTable.stage` rounds per block (whole rows of
#: ``r_0`` leading-axis slices each): the block's fp32 copy and masks are
#: all the rounding scratch an arena holds, however large the grid.
_ROUND_BLOCK = 1 << 16


class _RoundScratch(NamedTuple):
    """Masks of one rounding pass, at least one element per value."""

    probe: np.ndarray           # uint32: bit tests of the fp32 values
    slow: np.ndarray            # bool: the lanes that take the cast chain
    flag: np.ndarray            # bool: one test before it is or-ed in


def _round_scratch(size: int) -> _RoundScratch:
    return _RoundScratch(probe=np.empty(size, dtype=np.uint32),
                         slow=np.empty(size, dtype=bool),
                         flag=np.empty(size, dtype=bool))


def _round_fp16(values: np.ndarray, out: Optional[np.ndarray] = None,
                scratch: Optional[_RoundScratch] = None
                ) -> Tuple[np.ndarray, bool]:
    """``values.astype(float16).astype(float32)``, bit for bit, into ``out``.

    Holds for a real array of any dtype up to float64 and any layout.
    numpy's half casts run a scalar loop; this rounds in fp32 instead.  The
    cast to fp32 rounds to nearest even; adding half an fp16 ulp
    (``0x1000``) to the fp32 bits and clearing the 13 bits fp16 lacks then
    rounds to 11 significant bits, carrying into the exponent as needed.
    That equals the direct rounding to fp16 on every lane except three
    kinds, which are recomputed with the exact cast chain:

    * fp32 values on an fp16 tie (low 13 bits ``0x1000``): the cast to fp32
      may have decided the tie, and the shortcut does not break ties to
      even;
    * non-zero magnitudes below ``2**-14``, where fp16 is subnormal and keeps
      fewer than 11 significant bits;
    * magnitudes above 65504: overflow to infinity, infinities and NaNs.

    Off a tie the shortcut is exact: fp32 rounding is monotone and every
    midpoint between two normal fp16 values is an fp32 value, so the fp32
    value lies strictly on the same side of each midpoint as the input.
    (fp32 and narrower inputs, and integers below ``2**24``, convert to
    fp32 exactly; larger integers overflow fp16 and fall back.)  ±0 stays
    on the fast path.  When more than ``_FP16_FALLBACK_SHARE`` of the lanes
    fall back, the whole array takes the cast chain instead.

    ``out`` is a C-contiguous fp32 array of ``values.shape`` (a new one
    when not given); ``scratch`` holds at least ``values.size`` elements of
    each kind (allocated when not given).
    Returns ``(out, finite)``: whether every rounded value is finite.  Only
    a recomputed lane can be non-finite — the shortcut never exceeds 65504
    — so ``finite`` is read from those lanes, after rounding: a float64
    ``7e4`` is finite, its fp16 rounding is not.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.float32)
    if scratch is None:
        scratch = _round_scratch(values.size)
    size = values.size
    probe, slow, flag = (scratch.probe[:size], scratch.slow[:size],
                         scratch.flag[:size])
    np.copyto(out, values, casting="unsafe")
    bits = out.reshape(-1).view(np.uint32)
    np.bitwise_and(bits, 0x7FFFFFFF, out=probe)
    np.greater(probe, _FP16_MAX_BITS, out=slow)
    probe -= 1                  # ±0 wraps to 0xFFFFFFFF: not subnormal
    np.less(probe, _FP16_MIN_NORMAL_BITS - 1, out=flag)
    slow |= flag
    np.bitwise_and(bits, 0x1FFF, out=probe)
    np.equal(probe, 0x1000, out=flag)
    slow |= flag
    n_slow = np.count_nonzero(slow)
    if n_slow > _FP16_FALLBACK_SHARE * size:
        np.copyto(out, values.astype(np.float16))
        np.isfinite(bits.view(np.float32), out=flag)
        return out, bool(flag.all())
    bits += 0x1000
    bits &= 0xFFFFE000
    if not n_slow:
        return out, True
    lanes = np.flatnonzero(slow)
    exact = values.reshape(-1)[lanes].astype(np.float16).astype(np.float32)
    bits[lanes] = exact.view(np.uint32)
    return out, bool(np.isfinite(exact).all())


def _cast_fp32(values: np.ndarray, out: np.ndarray,
               scratch: _RoundScratch) -> Tuple[np.ndarray, bool]:
    """Cast ``values`` into the fp32 array ``out``: the staging of a plan
    whose device precision numpy holds as fp32.  Returns ``(out, finite)``
    like :func:`_round_fp16`, read from ``out`` (a finite float64 past the
    fp32 range casts to infinity)."""
    np.copyto(out, values, casting="unsafe")
    flag = scratch.flag[:out.size].reshape(out.shape)
    return out, bool(np.isfinite(out, out=flag).all())


class _SharedProducts(NamedTuple):
    """The slot weights a sweep multiplies into the whole staged buffer once.

    ``picks`` holds, per output row and term, the index of the term's weight
    in ``weights``, or ``-1`` for a term that multiplies its own run.
    """

    weights: Tuple[np.float32, ...]
    picks: Tuple[Tuple[int, ...], ...]


def _share_products(rows, span: int, staged_size: int) -> _SharedProducts:
    """Share each weight whose terms multiply more elements (uses x ``span``)
    than one product of the ``staged_size`` buffer holds.

    Weights are told apart by bit pattern, so ``+0`` and ``-0`` never share.
    """
    uses: Dict[bytes, list] = {}
    for terms in rows:
        for _, weight in terms:
            uses.setdefault(weight.tobytes(), []).append(weight)
    weights = tuple(found[0] for found in uses.values()
                    if len(found) * span > staged_size)
    return _pick_products(rows, weights)


def _pick_products(rows, weights) -> _SharedProducts:
    """``rows``' terms picked against the shared ``weights`` (by bit
    pattern); a term whose weight is not among them multiplies its run."""
    index = {weight.tobytes(): k for k, weight in enumerate(weights)}
    return _SharedProducts(
        weights=weights,
        picks=tuple(tuple(index.get(weight.tobytes(), -1)
                          for _, weight in terms) for terms in rows))


@dataclass(frozen=True)
class SlotTable:
    """Plan-constant operand slots of the sparse sweep (§3.3, "Lookup Table").

    The generated kernel never builds ``B'``: its LUT-driven async copies
    load each grid value straight into the operand slot the 2:4 metadata
    selects.  This table is the host form of that mapping.  Compressed slot
    ``kk`` of output row ``r`` multiplies converted row
    ``c = group_base + indices[r, kk]``, which holds ``B'`` row
    ``permutation[c]``: the grid at ``patch_offset[permutation[c]]`` plus
    every tile corner of ``column_base``.

    Because ``column_base`` is the regular tile lattice (stride ``r_i`` along
    axis ``i``), the staged buffer splits the tile-padded grid into its
    ``prod(r)`` polyphase components — phase ``q`` holds
    ``grid[q_0::r_0, q_1::r_1, ...]`` — and each slot's operand across all
    tiles becomes one contiguous run of that buffer, ``span`` elements long.
    Positions of the run past a phase row's last tile are computed and
    dropped.  Slots on the conversion's zero rows are left out: they
    multiply an exact zero.

    Slots whose *weight* is exactly zero (the 2:4 padding) are kept in
    ``rows`` but left out of ``live_rows``, which :meth:`multiply` walks
    when the staged buffer is finite — as :meth:`stage` read it from the
    rounding, after rounding.  That is bit-exact: a row's
    accumulator starts at +0 and, under round-to-nearest-even, ``+0 + x`` is
    never −0, so it never holds −0; a zero weight times a finite operand is
    ±0, and adding ±0 to a value that is not −0 leaves it unchanged.  A zero
    weight times ``inf`` or ``NaN`` is ``NaN``, so a non-finite staged
    buffer takes the full ``rows``.

    A weight that many terms carry (all 162 live slots of the 64³ box-27
    plan carry one) is multiplied into the whole staged buffer once per
    sweep, and its terms add slices of that product.  The choice is a plan
    constant (``shared`` for ``rows``, ``live_shared`` for ``live_rows``):
    a weight is shared when its terms' runs hold more elements than the
    buffer.  That is bit-exact too: each element of the shared product is
    the fp32 ``w * x`` the term would compute, and every row still adds its
    terms in slot order from +0.  Both row sets share the products of
    ``live_rows``, so the zero-weight terms of a non-finite sweep multiply
    their own runs and a sweep never holds a product for a zero weight.

    The table holds plan constants only.  A sweep's buffers — the staged
    grid, the fp32 accumulators, the term buffer, the shared products, and
    a block of grid rows with its rounding masks — are views into the
    calling thread's scratch arena: one byte buffer per thread, grown to
    the largest table that thread has swept and never shrunk, freed when
    the thread ends.  Each table's views are cached per thread and rebuilt
    when the buffer regrows; the staged tile padding is zeroed again
    whenever another table used the arena in between.  So the arrays
    :meth:`stage` and :meth:`multiply` return — the staged buffer and the
    fp32 ``D`` — are valid only until the same thread's next slot-table
    sweep, threads never share one, and pickling a table carries none.

    Attributes
    ----------
    rows: per output row, its ``(run offset, fp32 weight)`` terms in
        compressed-slot order — the order the fp32 accumulation follows.
    live_rows: ``rows`` without the terms whose weight is zero.
    grid_shape: the grid extents the table stages.
    tile_grid: tiles per axis.
    tile_extent: the layout's tile extents ``r`` (phases per axis).
    phase_shape: extents of one phase of the staged buffer.
    span: elements in one slot's run.
    stage_dtype: device precision operands are rounded to before staging.
    shared: ``live_shared``'s weights, picked by the terms of ``rows``.
    live_shared: the weights of ``live_rows`` whose product a sweep shares.
    """

    rows: Tuple[Tuple[Tuple[int, np.float32], ...], ...]
    live_rows: Tuple[Tuple[Tuple[int, np.float32], ...], ...]
    grid_shape: Tuple[int, ...]
    tile_grid: Tuple[int, ...]
    tile_extent: Tuple[int, ...]
    phase_shape: Tuple[int, ...]
    span: int
    stage_dtype: np.dtype
    shared: _SharedProducts
    live_shared: _SharedProducts

    @cached_property
    def staged_shape(self) -> Tuple[int, ...]:
        return (math.prod(self.tile_extent),) + self.phase_shape

    @cached_property
    def phase_size(self) -> int:
        return math.prod(self.phase_shape)

    def stage(self, grid: np.ndarray) -> np.ndarray:
        """Round ``grid`` to the device precision into the phase-split fp32 buffer.

        Exact: gathering and permuting ``B'`` only copy values, so rounding
        the grid once equals rounding every ``B'`` element.  The grid is
        rounded a block of leading-axis rows at a time into an fp32 scratch
        block — at fp16 by :func:`_round_fp16`, which matches numpy's
        ``astype(float16).astype(float32)`` bit for bit without its scalar
        loops — and each phase of the block is copied into its place in
        the buffer.  Rounding contiguous blocks keeps the bit tests on long
        runs; casting straight into the phases would run them on rows as
        short as one phase row.  Tile padding stays zero.

        The buffer is scratch of the calling thread's arena (see the class
        docstring): valid until that thread's next slot-table sweep.
        """
        if grid.shape != self.grid_shape:
            raise ValidationError(
                f"grid shape {tuple(grid.shape)} does not match the slot "
                f"table's {self.grid_shape}")
        views = _borrow(self)
        round_into = _cast_fp32 if self.stage_dtype == np.float32 \
            else _round_fp16
        finite = True
        for rows, block, copies in views.blocks:
            finite &= round_into(grid[rows], block, views.rounding)[1]
            for source, target in copies:
                np.copyto(target, block[source])
        views.finite = finite
        return views.staged

    def multiply(self, staged: np.ndarray) -> np.ndarray:
        """``D = A'' @ B''`` over the slots of a :meth:`stage` buffer.

        Each row accumulates ``w * run`` in fp32 from +0 in slot order —
        bit-identical to :func:`repro.tcu.sparse_mma.sparse_mma_compressed`
        on the materialised ``B''``; a finite buffer skips the zero-weight
        terms (``live_rows``), which cannot change a bit, and the terms of
        a shared weight add slices of one product of the whole buffer.
        Whether the buffer :meth:`stage` returned is finite was read while
        rounding it; any other buffer is tested here.

        Returns ``D`` in fp32, viewed over the tile grid: shape
        ``(m',) + tile_grid``, cropped from the accumulators, so row ``a``
        reshaped is row ``a`` of the device model's ``(m', n')`` product.
        It is scratch of the calling thread's arena, valid until that
        thread's next slot-table sweep.
        """
        if not (staged.shape == self.staged_shape
                and staged.dtype == np.float32 and staged.flags.c_contiguous):
            raise ValidationError(
                "staged operand must be a C-contiguous fp32 buffer of shape "
                f"{self.staged_shape}")
        views = _borrow(self)
        finite = (views.finite if staged is views.staged
                  else bool(np.isfinite(staged).all()))
        rows, shared = ((self.live_rows, self.live_shared) if finite
                        else (self.rows, self.shared))
        flat = staged.reshape(-1)
        span = self.span
        products = views.products
        for product, weight in zip(products, shared.weights):
            np.multiply(flat, weight, out=product)
        term = views.term
        for acc, terms, picks in zip(views.accumulators, rows, shared.picks):
            acc.fill(0)
            for (offset, weight), pick in zip(terms, picks):
                if pick < 0:
                    np.multiply(flat[offset:offset + span], weight, out=term)
                    acc += term
                else:
                    acc += products[pick][offset:offset + span]
        return views.tiles


def _block_rows(table: SlotTable) -> int:
    """Leading-axis grid rows :meth:`SlotTable.stage` rounds per block: a
    multiple of ``r_0``, so every block starts on phase row boundaries."""
    r0 = table.tile_extent[0]
    plane = math.prod(table.grid_shape[1:])
    return min(r0 * max(1, _ROUND_BLOCK // (r0 * plane)),
               table.grid_shape[0])


def _arena_layout(table: SlotTable):
    """``(parts, nbytes)``: the ``(dtype, shape, offset)`` of each view a
    sweep of ``table`` carves from its thread's arena, in :class:`_Views`
    order, and the bytes they span.  Each view starts 64-byte aligned."""
    block = _block_rows(table) * math.prod(table.grid_shape[1:])
    n_products = len(table.live_shared.weights)
    parts, offset = [], 0
    for dtype, shape in (
            (np.float32, table.staged_shape),
            (np.float32, (len(table.rows), table.phase_size)),
            (np.float32, (table.span,)),
            (np.float32, (n_products, math.prod(table.staged_shape))),
            (np.float32, (block,)),
            (np.uint32, (block,)), (np.bool_, (block,)),
            (np.bool_, (block,))):
        parts.append((dtype, shape, offset))
        offset += -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
    return parts, offset


class _Views:
    """One table's views into its thread's arena buffer.

    In buffer order: the staged buffer, the ``(m', phase_size)`` fp32
    accumulators, the term buffer, one staged-sized product per shared
    weight of ``live_rows``, an fp32 block of grid rows
    and the rounding-mask scratch for it.  ``blocks`` lists, per block of
    :func:`_block_rows` grid rows, its slice of the grid, its rounded fp32
    view and the ``(block slices, staged view)`` copy of each phase;
    ``pads`` covers the rest of every phase, the tile padding.  ``finite``
    is what the last :meth:`SlotTable.stage` read.
    """

    __slots__ = ("staged", "blocks", "pads", "accumulators", "tiles", "term",
                 "products", "rounding", "finite")

    def __init__(self, table: SlotTable, buffer: np.ndarray, parts) -> None:
        self.staged, d, self.term, self.products, block, *rounding = (
            buffer[offset:offset + math.prod(shape) * np.dtype(dtype).itemsize]
            .view(dtype).reshape(shape) for dtype, shape, offset in parts)
        self.rounding = _RoundScratch(*rounding)
        self.accumulators = tuple(row[:table.span] for row in d)
        self.tiles = d.reshape((len(d),) + table.phase_shape)[
            (slice(None),) + tuple(slice(0, t) for t in table.tile_grid)]

        extent, shape = table.tile_extent, table.grid_shape
        phases = [(phase, residues, tuple(
                      len(range(q, g, r))
                      for q, r, g in zip(residues, extent, shape)))
                  for phase, residues in zip(self.staged,
                                             np.ndindex(*extent))]
        self.pads = tuple(
            phase[(slice(None),) * axis + (slice(n, None),)]
            for phase, _, part in phases
            for axis, (n, full) in enumerate(zip(part, table.phase_shape))
            if n < full)
        step = _block_rows(table)
        blocks = []
        for start in range(0, shape[0], step):
            rows = min(step, shape[0] - start)
            rounded = block[:rows * math.prod(shape[1:])].reshape(
                (rows,) + shape[1:])
            first, copies = start // extent[0], []
            for phase, residues, part in phases:
                count = len(range(residues[0], rows, extent[0]))
                copies.append((
                    tuple(slice(q, None, r) for q, r in zip(residues, extent)),
                    phase[(slice(first, first + count),)
                          + tuple(slice(0, n) for n in part[1:])]))
            blocks.append((slice(start, start + rows), rounded,
                           tuple(copies)))
        self.blocks = tuple(blocks)
        self.finite = False


class _Arena(threading.local):
    """One thread's sweep scratch: a byte buffer grown to the largest
    slot-table sweep the thread has run, each table's :class:`_Views` into
    it (keyed by ``id``, checked through a weak reference, rebuilt when the
    buffer regrows), and the views that borrowed it last."""

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.uint8)
        self.views: Dict[int, Tuple[weakref.ref, _Views]] = {}
        self.owner: Optional[_Views] = None


_ARENA = _Arena()


def _borrow(table: SlotTable) -> _Views:
    """``table``'s views into the calling thread's arena, padding zeroed."""
    arena = _ARENA
    entry = arena.views.get(id(table))
    if entry is None or entry[0]() is not table:
        parts, nbytes = _arena_layout(table)
        if nbytes > arena.buffer.nbytes:
            arena.buffer = np.empty(nbytes, dtype=np.uint8)
            arena.views.clear()         # all of them view the old buffer
        else:
            for key in [key for key, (ref, _) in arena.views.items()
                        if ref() is None]:
                del arena.views[key]
        entry = (weakref.ref(table), _Views(table, arena.buffer, parts))
        arena.views[id(table)] = entry
    views = entry[1]
    if arena.owner is not views:
        # another table's sweep may have written where this one pads
        for pad in views.pads:
            pad.fill(0)
        arena.owner = views
    return views


def build_slot_table(conversion: ConversionResult, metadata: SparseMetadata,
                     lut: LookupTable, dtype: DataType) -> SlotTable:
    """Fold the compiled 2:4 metadata, permutation and LUTs into a :class:`SlotTable`.

    Built from ``metadata.compressed`` (not from the dense operand), so a
    correct sweep result certifies the pipeline's metadata.  The runs rely
    on ``lut.column_base`` being the regular tile lattice; a LUT that is not
    raises :class:`~repro.util.validation.ValidationError`.
    """
    dtype = DataType(dtype)
    require(dtype.supports_sparse_tcu,
            f"{dtype.value} is not supported by sparse Tensor Cores")
    compressed = metadata.compressed
    require(compressed.k == conversion.n_total,
            f"metadata encodes k={compressed.k} but the conversion has "
            f"{conversion.n_total} columns")
    require(conversion.n_original == lut.k_prime,
            f"conversion covers {conversion.n_original} B' rows but the LUT "
            f"has {lut.k_prime}")
    indices = compressed.indices.astype(np.int64)
    require(bool(np.all(indices <= 3)), "metadata indices must be 2-bit values")

    padded = lut.padded_grid_shape
    tiles = lut.tile_grid
    extent = tuple(po // t for po, t in zip(lut.padded_out_shape, tiles))
    grid_strides = [int(np.prod(padded[axis + 1:], dtype=np.int64))
                    for axis in range(len(padded))]
    lattice = sum(np.arange(t, dtype=np.int64).reshape(
                      [t if a == axis else 1 for a in range(len(tiles))])
                  * r * stride
                  for axis, (t, r, stride) in enumerate(zip(tiles, extent,
                                                            grid_strides)))
    require(np.array_equal(lut.column_base.astype(np.int64),
                           np.ravel(lattice)),
            "lut.column_base is not the regular tile lattice; the sweep "
            "cannot gather it as contiguous runs")

    patch = lut.patch_offset.astype(np.int64)
    require(bool(np.all((patch >= 0) & (patch < int(np.prod(padded))))),
            "lut.patch_offset reaches outside the padded grid")
    corner = np.stack(np.unravel_index(patch, padded), axis=-1)     # (k', d)
    shift, residue = np.divmod(corner, np.asarray(extent))
    phase_shape = tuple(-(-p // r) for p, r in zip(padded, extent))
    require(bool(np.all(shift + np.asarray(tiles) <= np.asarray(phase_shape))),
            "lut.patch_offset reaches past the last tile of the padded grid")
    phase_strides = [int(np.prod(phase_shape[axis + 1:], dtype=np.int64))
                     for axis in range(len(phase_shape))]
    run_offset = (np.ravel_multi_index(residue.T, extent)
                  * int(np.prod(phase_shape)) + shift @ phase_strides)

    n_groups = compressed.k // 4
    group_base = np.repeat(np.arange(n_groups, dtype=np.int64) * 4, 2)
    sources = conversion.permutation[group_base[None, :] + indices]
    weights = np.asarray(compressed.values,
                         dtype=dtype.numpy_dtype).astype(np.float32)
    rows = tuple(
        tuple((int(run_offset[source]), weight)
              for source, weight in zip(row_sources, row_weights)
              if source < conversion.n_original)
        for row_sources, row_weights in zip(sources, weights))
    live_rows = tuple(tuple(term for term in row if term[1] != 0)
                      for row in rows)
    span = sum((t - 1) * stride for t, stride in zip(tiles, phase_strides)) + 1
    staged_size = int(np.prod(extent)) * int(np.prod(phase_shape))
    live_shared = _share_products(live_rows, span, staged_size)
    return SlotTable(
        rows=rows,
        live_rows=live_rows,
        grid_shape=lut.grid_shape,
        tile_grid=tiles,
        tile_extent=extent,
        phase_shape=phase_shape,
        span=span,
        stage_dtype=np.dtype(dtype.numpy_dtype),
        shared=_pick_products(rows, live_shared.weights),
        live_shared=live_shared,
    )


@dataclass(frozen=True)
class KernelPlan:
    """A fully lowered stencil kernel, ready for the simulated device."""

    pattern: StencilPattern
    grid_shape: Tuple[int, ...]
    config: MorphConfig
    fragment: FragmentShape
    dtype: DataType
    engine: str
    a_prime: np.ndarray
    a_operand: np.ndarray
    conversion: Optional[ConversionResult]
    metadata: Optional[SparseMetadata]
    lut: LookupTable
    estimate: PerfEstimate
    threads_per_block: int
    blocks: int
    registers_per_thread: int = SPARSE_KERNEL_REGISTERS
    cuda_source: str = ""
    #: Operand slots the ``tcu-sim`` sweep gathers through; ``None`` for
    #: ``dense_mma`` plans, which keep the ``B'`` path.
    slot_table: Optional[SlotTable] = None

    @property
    def m_prime(self) -> int:
        return int(self.a_operand.shape[0])

    @property
    def k_operand(self) -> int:
        """Reduction depth of the operand actually issued to the MMA engine."""
        return int(self.a_operand.shape[1])

    @property
    def n_prime(self) -> int:
        return self.lut.n_prime

    def summary(self) -> dict:
        """Human-readable plan summary (used by examples and reports)."""
        return {
            "pattern": self.pattern.name,
            "grid": self.grid_shape,
            "engine": self.engine,
            "fragment": self.fragment.label,
            "dtype": self.dtype.value,
            "r1": self.config.r1,
            "r2": self.config.r2,
            "m_prime": self.m_prime,
            "k_prime": int(self.a_prime.shape[1]),
            "k_operand": self.k_operand,
            "n_prime": self.n_prime,
            "n_mma_per_sweep": self.estimate.n_mma,
            "sparsity": self.estimate.sparsity,
            "compute_density": self.estimate.compute_density,
            "modeled_sweep_seconds": self.estimate.t_total,
            "bound": self.estimate.bound,
        }


def _launch_geometry(plan_blocks_hint: Optional[Tuple[int, ...]],
                     n_prime: int, spec: GPUSpec) -> Tuple[int, int]:
    """Derive (threads_per_block, blocks) from a Table-2 block hint or defaults."""
    if plan_blocks_hint:
        threads = int(np.prod(plan_blocks_hint))
    else:
        threads = 256
    threads = max(32, min(1024, threads))
    blocks = max(1, min(spec.sm_count * 32, -(-n_prime // max(1, threads // 32))))
    return threads, blocks


def generate_kernel(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    config: MorphConfig,
    *,
    fragment: FragmentShape = SPARSE_FRAGMENTS[0],
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    engine: str = "sparse_mma",
    conversion_method: str = "auto",
    block_hint: Optional[Tuple[int, ...]] = None,
    render_source: bool = True,
    prebuilt_conversion: Optional[ConversionResult] = None,
    prebuilt_metadata: Optional[SparseMetadata] = None,
    prebuilt_lut: Optional[LookupTable] = None,
    prebuilt_estimate: Optional[PerfEstimate] = None,
) -> KernelPlan:
    """Lower one (pattern, grid, layout) triple into a :class:`KernelPlan`.

    The ``prebuilt_*`` arguments let callers (notably
    :func:`repro.core.pipeline.compile_stencil`, which times each
    preprocessing stage separately for the Figure-8 overhead split, and
    passes the layout search's estimate of the winning layout) supply
    already-constructed pieces instead of rebuilding them here.
    """
    require_in(engine, ("sparse_mma", "dense_mma"), "engine")
    dtype = DataType(dtype)
    grid_shape = tuple(int(s) for s in grid_shape)

    a_prime = morph_kernel_matrix(pattern, config)

    conversion: Optional[ConversionResult] = None
    metadata: Optional[SparseMetadata] = None
    if engine == "sparse_mma":
        if prebuilt_conversion is not None:
            conversion = prebuilt_conversion
        else:
            structure = block_structure_from_morph(pattern, config)
            conversion = convert_to_24(a_prime, structure=structure,
                                       method=conversion_method)
        a_operand = conversion.a_converted
        metadata = prebuilt_metadata if prebuilt_metadata is not None \
            else build_metadata(a_operand)
    else:
        a_operand = a_prime

    lut = prebuilt_lut if prebuilt_lut is not None \
        else build_lookup_table(pattern, grid_shape, config)
    estimate = prebuilt_estimate if prebuilt_estimate is not None \
        else estimate_layout(
            pattern, grid_shape, config,
            fragment=fragment, dtype=dtype, spec=spec, engine=engine,
            conversion_method=conversion_method,
        )
    threads, blocks = _launch_geometry(block_hint, lut.n_prime, spec)
    slot_table = (build_slot_table(conversion, metadata, lut, dtype)
                  if conversion is not None and metadata is not None else None)

    plan = KernelPlan(
        pattern=pattern,
        grid_shape=grid_shape,
        config=config,
        fragment=fragment,
        dtype=dtype,
        engine=engine,
        a_prime=a_prime,
        a_operand=a_operand,
        conversion=conversion,
        metadata=metadata,
        lut=lut,
        estimate=estimate,
        threads_per_block=threads,
        blocks=blocks,
        registers_per_thread=(SPARSE_KERNEL_REGISTERS if engine == "sparse_mma"
                              else DENSE_KERNEL_REGISTERS),
        cuda_source="",
        slot_table=slot_table,
    )
    if render_source:
        object.__setattr__(plan, "cuda_source", render_cuda_source(plan))
    return plan


# --------------------------------------------------------------------------- #
# CUDA-like source rendering
# --------------------------------------------------------------------------- #
_KERNEL_TEMPLATE = """\
// Auto-generated by SparStencil (reproduction) — do not edit.
// pattern: {pattern} ({points} taps, {ndim}D, k={k})
// layout:  r1={r1}, r2={r2}  ->  A''[{m_prime} x {k_operand}]  B'[{k_operand} x {n_prime}]
// engine:  {engine}  fragment {fragment}  dtype {dtype}
#include <cuda_fp16.h>
#include <mma.h>

#define M_PRIME   {m_prime}
#define K_OPERAND {k_operand}
#define N_PRIME   {n_prime}
#define FRAG_M    {frag_m}
#define FRAG_K    {frag_k}
#define FRAG_N    {frag_n}
#define TILE_COLS {tile_cols}

// Host-precomputed lookup tables (§3.3): one flat base offset per tile column
// and one patch-relative offset per K element — no div/mod on the device.
__constant__ int lut_patch_offset[K_OPERAND];

extern "C" __global__ void sparstencil_{safe_name}(
    const {ctype}* __restrict__ input,       // padded input grid
    {ctype}* __restrict__ output,            // output grid (valid region)
    const {ctype}* __restrict__ a_values,    // compressed A'' values (K/2)
    const uint32_t* __restrict__ a_metadata, // 2-bit sparse indices
    const int* __restrict__ lut_column_base) // per-tile base offsets
{{
    extern __shared__ {ctype} smem[];
    {ctype}* buf[2] = {{ smem, smem + K_OPERAND * TILE_COLS }};

    const int tile0 = blockIdx.x * TILE_COLS;
    int stage = 0;

    // ---- stage 1: async LUT-driven prefetch of the first tile batch --------
    #pragma unroll
    for (int c = threadIdx.x; c < TILE_COLS; c += blockDim.x) {{
        const int base = lut_column_base[tile0 + c];
        for (int e = 0; e < K_OPERAND; ++e)
            __pipeline_memcpy_async(&buf[stage][e * TILE_COLS + c],
                                    &input[base + lut_patch_offset[e]],
                                    sizeof({ctype}));
    }}
    __pipeline_commit();

    for (int col = tile0; col < min(tile0 + TILE_COLS, N_PRIME); col += FRAG_N) {{
        __pipeline_wait_prior(0);
        __syncthreads();

        // ---- stage 2: sparse MMA over the K fragments -----------------------
        float acc[FRAG_M * FRAG_N / 32] = {{0.f}};
        #pragma unroll
        for (int kk = 0; kk < K_OPERAND; kk += FRAG_K) {{
            asm volatile(
                "{mma_instruction}\\n"
                : "+f"(acc[0]), "+f"(acc[1]), "+f"(acc[2]), "+f"(acc[3])
                : "r"(__cvta_generic_to_shared(&buf[stage][kk * TILE_COLS])),
                  "l"(a_values), "r"(a_metadata[kk / FRAG_K]));
        }}

        // ---- stage 3: write back while the next batch streams in ------------
        stage ^= 1;
        #pragma unroll
        for (int row = threadIdx.x / 32; row < M_PRIME; row += blockDim.x / 32)
            output[/* tile-major store, assembled on the host side */
                   (size_t)col * M_PRIME + row] = ({ctype})acc[row % 4];
    }}
}}
"""


def render_cuda_source(plan: KernelPlan) -> str:
    """Render the CUDA-C-like kernel source for a plan."""
    if plan.engine == "sparse_mma":
        mma = (f"mma.sp.sync.aligned.m{plan.fragment.m}n{plan.fragment.n}"
               f"k{plan.fragment.k}.row.col.f32.f16.f16.f32")
    else:
        mma = (f"mma.sync.aligned.m{plan.fragment.m}n{plan.fragment.n}"
               f"k{plan.fragment.k}.row.col.f32.f16.f16.f32")
    ctype = {"fp16": "__half", "bf16": "__nv_bfloat16",
             "tf32": "float", "fp64": "double"}[plan.dtype.value]
    safe_name = plan.pattern.name.replace("-", "_").replace("/", "_")
    return _KERNEL_TEMPLATE.format(
        pattern=plan.pattern.name,
        points=plan.pattern.points,
        ndim=plan.pattern.ndim,
        k=plan.pattern.diameter,
        r1=plan.config.r1,
        r2=plan.config.r2,
        m_prime=plan.m_prime,
        k_operand=plan.k_operand,
        n_prime=plan.n_prime,
        engine=plan.engine,
        fragment=plan.fragment.label,
        dtype=plan.dtype.value,
        frag_m=plan.fragment.m,
        frag_k=plan.fragment.k,
        frag_n=plan.fragment.n,
        tile_cols=max(plan.fragment.n, 32),
        ctype=ctype,
        safe_name=safe_name,
        mma_instruction=mma,
    )


# --------------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------------- #
#: The backend compile options resolve to when neither the caller nor the
#: environment picks one.
DEFAULT_BACKEND = "tcu-sim"

#: Environment override for the default backend (the CI backend matrix runs
#: the test suite once per registered backend through this variable).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class StencilBackend(abc.ABC):
    """One way to execute a compiled plan's sweeps on the host.

    The compile pipeline is backend-independent: every backend receives the
    same fully lowered :class:`KernelPlan` (via the engine layer's
    ``SweepContext``) and must preserve the functional sweep contract —
    ``current[interior]`` advances by one application of the plan's
    (possibly fused) pattern, the halo ring is left untouched (boundary
    handling belongs to the executor) — while returning a
    :class:`~repro.tcu.executor.LaunchResult` carrying the sweep's modelled
    device timing and utilisation.
    """

    #: Registry key; also what ``CompileOptions.backend`` stores and the
    #: compile fingerprint hashes.
    name: str = "backend"
    description: str = ""

    @abc.abstractmethod
    def make_sweep(self, context: "Any") -> Callable[[np.ndarray], LaunchResult]:
        """Build the per-sweep callable for one prepared plan.

        ``context`` is a :class:`repro.engine.base.SweepContext` (duck-typed
        here to keep the core → engine dependency one-way).  The returned
        callable mutates the grid array in place and returns the sweep's
        :class:`LaunchResult`.

        A sweep's modelled launch depends only on its plan: every sweep of
        one context returns ``context.priced_launch`` — :meth:`price` of that
        context, priced once, with no output (the built-in backends return
        it as is).  The single-device executor bills the launches
        the sweeps return; the sharded engine bills a layout from
        :meth:`price` once, without sweeping; and the benchmark's
        exact-repeat check relies on the same fact.  A sweep that returned
        any other launch would bill the two engines differently.
        """

    def price(self, context: "Any") -> LaunchResult:
        """The modelled launch of one sweep of ``context``'s plan
        (``output`` is ``None``); read it as ``context.priced_launch``.

        The default bills the plan's roofline estimate
        (:class:`~repro.core.perf_model.PerfEstimate`): host-side backends
        skip the functional device simulation, so they have no fragment path
        to price, and bill the same per-sweep model the layout search and
        the device-pool scheduler already trust, keeping modelled metrics —
        and the scheduler's single-vs-sharded estimates — comparable across
        backends.
        """
        plan = context.plan
        estimate: PerfEstimate = plan.estimate
        elapsed = max(estimate.t_total, 1e-30)
        utilization = derive_utilization(
            compute_seconds=estimate.t_compute,
            memory_seconds=estimate.t_memory,
            elapsed_seconds=elapsed,
            traffic=estimate.traffic,
            spec=context.spec,
            threads_per_block=plan.threads_per_block,
            blocks=plan.blocks,
            registers_per_thread=plan.registers_per_thread,
        )
        return LaunchResult(
            name=context.launch_name,
            output=None,
            elapsed_seconds=elapsed,
            compute_seconds=estimate.t_compute,
            memory_seconds=estimate.t_memory,
            fragment_ops=estimate.n_mma,
            utilization=utilization,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class TcuSimBackend(StencilBackend):
    """The simulated-Tensor-Core pipeline (the paper's execution path)."""

    name = "tcu-sim"
    description = ("stage the grid at device precision, accumulate the "
                   "plan's 2:4 slot table in fp32 (dense plans: gather B' "
                   "and run the dense MMA model), assemble the interior")

    def make_sweep(self, context):
        # Imported lazily: repro.engine.base imports this module (via
        # core.pipeline), so a module-level import would be circular.
        from repro.engine.base import assemble_step, gather_step, mma_step

        def sweep(current: np.ndarray) -> LaunchResult:
            b_operand = gather_step(context, current)
            result = mma_step(context, b_operand)
            assemble_step(context, result, current)
            # the steps' arrays are the thread's arena scratch: none escapes
            return context.priced_launch

        return sweep

    def price(self, context):
        """Price the MMA from its operand shapes, by the formulas
        :func:`~repro.tcu.executor.price_launch` gives
        :func:`~repro.tcu.executor.execute_launch`: the compressed ``K`` of
        a slot-table plan, the dense operand's ``K`` otherwise."""
        plan = context.plan
        k = plan.metadata.compressed.k if plan.slot_table is not None \
            else plan.k_operand
        return price_launch(
            context.launch_name, plan.engine,
            mma_count(plan.m_prime, k, plan.n_prime, plan.fragment),
            fragment=plan.fragment,
            dtype=plan.dtype,
            traffic=plan.estimate.traffic,
            threads_per_block=plan.threads_per_block,
            blocks=plan.blocks,
            registers_per_thread=plan.registers_per_thread,
            spec=context.spec,
        )


class NumpyBackend(StencilBackend):
    """Vectorised float64 fast path: the raw-speed lever.

    The sweep accumulates one shifted view of the grid per tap, in the
    pattern's fixed tap order.  Every operation is elementwise, so each
    output cell's value depends only on its stencil neighbourhood and the
    tap order — **never on the array's shape**.  That shape-independence is
    load-bearing: the sharded engine runs the same plan on shard-shaped
    subgrids, and the repo-wide invariant that sharded output is
    bit-identical to single-device holds only because the sweep computes
    the same bits on a (50, 96) shard as on the (96, 96) grid.  A
    ``sliding_window_view`` + ``tensordot`` contraction would be faster for
    dense (box-like) kernels, but it lowers to a BLAS matmul whose
    reduction order varies with operand shape, breaking that invariant at
    the ULP level — so the tap loop is the only path.
    """

    name = "numpy"
    description = ("direct vectorised sweep: one shifted-view accumulation "
                   "per tap, elementwise and shape-independent")

    def make_sweep(self, context):
        compiled = context.compiled
        pattern = compiled.pattern  # the effective (fused) pattern
        shape = compiled.grid_shape
        radius = pattern.radius
        interior = context.interior
        template = context.priced_launch

        taps = [
            (float(weight),
             tuple(slice(radius + off, size - radius + off)
                   for off, size in zip(offsets, shape)))
            for offsets, weight in zip(pattern.offsets, pattern.weights)
        ]

        def sweep(current: np.ndarray) -> LaunchResult:
            first_weight, first_view = taps[0]
            acc = first_weight * current[first_view]
            for weight, view in taps[1:]:
                acc += weight * current[view]
            current[interior] = acc
            return template

        return sweep


_BACKENDS: Dict[str, StencilBackend] = {}
_BACKENDS_LOCK = threading.Lock()


def register_backend(backend: StencilBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry under ``backend.name``."""
    require(isinstance(backend, StencilBackend),
            f"backend must be a StencilBackend, got {type(backend).__name__}")
    require(isinstance(backend.name, str) and backend.name != "",
            "backend.name must be a non-empty string")
    with _BACKENDS_LOCK:
        if not replace and backend.name in _BACKENDS:
            raise ValidationError(
                f"backend {backend.name!r} already registered "
                f"(pass replace=True to override)")
        _BACKENDS[backend.name] = backend


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name."""
    with _BACKENDS_LOCK:
        return tuple(_BACKENDS)


def get_backend(name: str) -> StencilBackend:
    """Look up one registered backend by name."""
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered: "
            f"{sorted(registered_backends())}")
    return backend


def resolve_backend(name: Optional[str] = None) -> str:
    """Canonicalise a backend request to a registered name.

    ``None`` falls back to the ``REPRO_BACKEND`` environment override, then
    to :data:`DEFAULT_BACKEND` — which is how the CI backend matrix pivots a
    whole test run onto one backend without touching call sites.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name).name


register_backend(TcuSimBackend())
register_backend(NumpyBackend())
