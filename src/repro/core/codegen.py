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
  with fp32 accumulation, and assembles the interior — the generated
  kernel's LUT-driven loads, without ever building ``B'``.  Its launch
  timing is priced once per prepared plan from the operand shapes.  A
  ``dense_mma`` (fp64) plan gathers ``B'`` and runs the functional dense
  MMA every sweep.
* ``"numpy"`` — a vectorised fast path: the effective (fused) kernel is
  applied directly as one shifted-view accumulation per tap, in float64.
  Elementwise and shape-independent, so sharded runs stay bit-identical to
  single-device; per-sweep device timing/utilisation are billed from the
  plan's roofline estimate, so modelled metrics stay comparable across
  backends.
* ``"numba"`` — a JIT-compiled flat-gather loop, registered only when the
  optional :mod:`numba` dependency imports.

Every backend executes the *same* :class:`KernelPlan` (the compile pipeline
is backend-independent); what changes is how a sweep is carried out on the
host.  The backend name joins the compile fingerprint
(:mod:`repro.service.fingerprint`), so caches can never serve a plan across
backends, and it is recorded in :class:`repro.session.Provenance`.

Tolerance contract: ``tcu-sim`` carries the simulated device's precision
(fp16/bf16/tf32 operand rounding with fp32 accumulation); ``numpy`` /
``numba`` compute in float64.  Outputs of any two backends therefore agree
within the *device* tolerance of the dtype (the ``ref_tol`` the golden suite
already uses against the float64 reference — e.g. ~2e-2 absolute for fp16
Table-2 workloads), and are bit-identical only where the math permits
(backends never reorder each other's summation).
"""

from __future__ import annotations

import abc
import importlib.util
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.conversion import ConversionResult, convert_to_24
from repro.core.lookup_table import LookupTable, build_lookup_table
from repro.core.metadata import SparseMetadata, build_metadata
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.perf_model import PerfEstimate, estimate_layout
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.counters import derive_utilization
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import A100_SPEC, DataType, FragmentShape, GPUSpec, SPARSE_FRAGMENTS
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
    "NumbaBackend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "registered_backends",
    "available_backends",
]

#: Per-thread register budgets of the generated kernels.  The sparse kernel
#: is register-lean (the compressed operand and metadata halve the A-fragment
#: footprint); the dense-TCU variant (ConvStencil-style execution) carries
#: roughly the register budget reported for hand-written dense-TCU stencil
#: kernels.  Recorded on the plan so executors carry no engine-specific
#: magic numbers.
SPARSE_KERNEL_REGISTERS = 32
DENSE_KERNEL_REGISTERS = 52


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

    Attributes
    ----------
    rows: per output row, its ``(run offset, fp32 weight)`` terms in
        compressed-slot order — the order the fp32 accumulation follows.
    grid_shape: the grid extents the table stages.
    tile_grid: tiles per axis.
    tile_extent: the layout's tile extents ``r`` (phases per axis).
    phase_shape: extents of one phase of the staged buffer.
    span: elements in one slot's run.
    stage_dtype: device precision operands are rounded to before staging.
    """

    rows: Tuple[Tuple[Tuple[int, np.float32], ...], ...]
    grid_shape: Tuple[int, ...]
    tile_grid: Tuple[int, ...]
    tile_extent: Tuple[int, ...]
    phase_shape: Tuple[int, ...]
    span: int
    stage_dtype: np.dtype

    @property
    def staged_shape(self) -> Tuple[int, ...]:
        return (int(np.prod(self.tile_extent)),) + self.phase_shape

    def stage(self, grid: np.ndarray) -> np.ndarray:
        """Round ``grid`` to the device precision into the phase-split fp32 buffer.

        Exact: gathering and permuting ``B'`` only copy values, so rounding
        the grid once equals rounding every ``B'`` element.  Tile padding
        stays zero.
        """
        require(tuple(grid.shape) == self.grid_shape,
                f"grid shape {tuple(grid.shape)} does not match the slot "
                f"table's {self.grid_shape}")
        staged = np.zeros(self.staged_shape, dtype=np.float32)
        rounded = (grid if self.stage_dtype == np.float32
                   else grid.astype(self.stage_dtype))
        for phase, residues in zip(staged, np.ndindex(*self.tile_extent)):
            part = rounded[tuple(slice(q, None, r) for q, r
                                 in zip(residues, self.tile_extent))]
            phase[tuple(slice(0, s) for s in part.shape)] = part
        return staged

    def multiply(self, staged: np.ndarray) -> np.ndarray:
        """``D = A'' @ B''`` over the slots of a :meth:`stage` buffer.

        Each row accumulates ``w * run`` in fp32 from +0 in slot order —
        bit-identical to :func:`repro.tcu.sparse_mma.sparse_mma_compressed`
        on the materialised ``B''``.  Returns the ``(m', n')`` product in
        float64, as the functional device model does.
        """
        require(staged.shape == self.staged_shape
                and staged.dtype == np.float32 and staged.flags.c_contiguous,
                "staged operand must be a C-contiguous fp32 buffer of shape "
                f"{self.staged_shape}")
        flat = staged.reshape(-1)
        span = self.span
        m = len(self.rows)
        d = np.zeros((m, int(np.prod(self.phase_shape))), dtype=np.float32)
        term = np.empty(span, dtype=np.float32)
        for row, terms in zip(d, self.rows):
            acc = row[:span]
            for offset, weight in terms:
                np.multiply(flat[offset:offset + span], weight, out=term)
                acc += term
        tiles = d.reshape((m,) + self.phase_shape)[
            (slice(None),) + tuple(slice(0, t) for t in self.tile_grid)]
        return tiles.astype(np.float64).reshape(m, -1)


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
    return SlotTable(
        rows=rows,
        grid_shape=lut.grid_shape,
        tile_grid=tiles,
        tile_extent=extent,
        phase_shape=phase_shape,
        span=sum((t - 1) * stride for t, stride in zip(tiles, phase_strides)) + 1,
        stage_dtype=np.dtype(dtype.numpy_dtype),
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
) -> KernelPlan:
    """Lower one (pattern, grid, layout) triple into a :class:`KernelPlan`.

    The ``prebuilt_*`` arguments let callers (notably
    :func:`repro.core.pipeline.compile_stencil`, which times each
    preprocessing stage separately for the Figure-8 overhead split) supply
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
    estimate = estimate_layout(
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

    def is_available(self) -> bool:
        """Whether this backend can run in the current environment.

        Backends gated on optional dependencies (``numba``) report ``False``
        instead of failing at import time; resolving an unavailable backend
        raises a :class:`~repro.util.validation.ValidationError`.
        """
        return True

    @abc.abstractmethod
    def make_sweep(self, context: "Any") -> Callable[[np.ndarray], LaunchResult]:
        """Build the per-sweep callable for one prepared plan.

        ``context`` is a :class:`repro.engine.base.SweepContext` (duck-typed
        here to keep the core → engine dependency one-way).  The returned
        callable mutates the grid array in place and returns the sweep's
        :class:`LaunchResult`.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _modelled_launch(context: "Any") -> LaunchResult:
    """A :class:`LaunchResult` billing the plan's roofline estimate.

    Host-side backends (``numpy`` / ``numba``) skip the functional device
    simulation, so they have no measured fragment path to derive timing
    from; they bill the same per-sweep model
    (:class:`~repro.core.perf_model.PerfEstimate`) the layout search and the
    device-pool scheduler already trust, keeping modelled metrics — and the
    scheduler's single-vs-sharded estimates — comparable across backends.
    ``output`` is ``None``: the sweep assembles the interior in place.
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
            return result

        return sweep


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
        template = _modelled_launch(context)

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


#: Process-wide memo of the JIT-compiled numba gather kernel (compiled once,
#: reused by every plan).
_NUMBA_KERNEL: Optional[Callable] = None
_NUMBA_KERNEL_LOCK = threading.Lock()


def _numba_kernel() -> Callable:
    global _NUMBA_KERNEL
    with _NUMBA_KERNEL_LOCK:
        if _NUMBA_KERNEL is None:
            import numba

            @numba.njit(parallel=True, cache=False)
            def kernel(flat, base_idx, tap_offsets, weights, out):  # pragma: no cover - needs numba
                for i in numba.prange(base_idx.size):
                    acc = 0.0
                    base = base_idx[i]
                    for j in range(tap_offsets.size):
                        acc += weights[j] * flat[base + tap_offsets[j]]
                    out[i] = acc

            _NUMBA_KERNEL = kernel
    return _NUMBA_KERNEL


class NumbaBackend(StencilBackend):
    """JIT flat-gather sweep, gated on the optional :mod:`numba` import.

    Every tap becomes one flat offset into the raveled grid; the JIT kernel
    gathers and accumulates per interior cell in parallel.  Registered
    unconditionally but :meth:`is_available` only when ``numba`` imports, so
    environments without the dependency simply cannot resolve it.
    """

    name = "numba"
    description = "numba-JIT flat-gather sweep over precomputed tap offsets"

    def is_available(self) -> bool:
        return importlib.util.find_spec("numba") is not None

    def make_sweep(self, context):  # pragma: no cover - exercised only with numba installed
        compiled = context.compiled
        pattern = compiled.pattern
        shape = compiled.grid_shape
        radius = pattern.radius
        interior = context.interior
        template = _modelled_launch(context)

        strides = np.asarray(
            [int(np.prod(shape[axis + 1:], dtype=np.int64))
             for axis in range(len(shape))], dtype=np.int64)
        tap_offsets = np.asarray(
            [int(np.dot(offsets, strides)) for offsets in pattern.offsets],
            dtype=np.int64)
        weights = np.asarray(pattern.weights, dtype=np.float64)
        interior_shape = tuple(size - 2 * radius for size in shape)
        mesh = np.meshgrid(*[np.arange(radius, size - radius)
                             for size in shape], indexing="ij")
        base_idx = np.ravel_multi_index(
            tuple(m.reshape(-1) for m in mesh), shape).astype(np.int64)
        kernel = _numba_kernel()

        def sweep(current: np.ndarray) -> LaunchResult:
            flat = np.ascontiguousarray(current).reshape(-1)
            out = np.empty(base_idx.size, dtype=np.float64)
            kernel(flat, base_idx, tap_offsets, weights, out)
            current[interior] = out.reshape(interior_shape)
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
    """Every registered backend name, available or not."""
    with _BACKENDS_LOCK:
        return tuple(_BACKENDS)


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose dependencies import in this environment."""
    with _BACKENDS_LOCK:
        backends = list(_BACKENDS.values())
    return tuple(b.name for b in backends if b.is_available())


def get_backend(name: str) -> StencilBackend:
    """Look up one registered, available backend by name."""
    with _BACKENDS_LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ValidationError(
            f"unknown backend {name!r}; registered: "
            f"{sorted(registered_backends())}")
    if not backend.is_available():
        raise ValidationError(
            f"backend {name!r} is registered but unavailable in this "
            f"environment (missing optional dependency?); available: "
            f"{sorted(available_backends())}")
    return backend


def resolve_backend(name: Optional[str] = None) -> str:
    """Canonicalise a backend request to a registered, available name.

    ``None`` falls back to the ``REPRO_BACKEND`` environment override, then
    to :data:`DEFAULT_BACKEND` — which is how the CI backend matrix pivots a
    whole test run onto one backend without touching call sites.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name).name


register_backend(TcuSimBackend())
register_backend(NumpyBackend())
register_backend(NumbaBackend())
