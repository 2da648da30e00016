"""End-to-end SparStencil pipeline: compile once, sweep many times.

:func:`compile_stencil` runs the three stages of the paper — Adaptive Layout
Morphing, Structured Sparsity Conversion and Automatic Kernel Generation
(with layout exploration) — and returns a :class:`CompiledStencil`.
:func:`execute_compiled` then executes the compiled kernel for a number of
time iterations on the simulated device, producing both the numerical result
(validated against the golden reference in the test suite) and the modelled
performance metrics the benchmark harness reports.

User-facing solves go through the session layer
(:class:`repro.StencilSession`); :func:`execute_compiled` and
:func:`compile_cached` are the engine-level entries it shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.codegen import KernelPlan, generate_kernel, resolve_backend
from repro.core.fusion import fuse_pattern
from repro.core.layout_search import LayoutSearchResult, search_layout
from repro.core.morphing import MorphConfig
from repro.stencils.grid import Grid
from repro.stencils.pattern import StencilPattern
from repro.tcu.counters import UtilizationReport
from repro.tcu.spec import (
    A100_SPEC,
    DENSE_FRAGMENTS,
    DataType,
    FragmentShape,
    GPUSpec,
    SPARSE_FRAGMENTS,
)
from repro.util.timing import StageTimer
from repro.util.validation import require, require_in, require_positive_int

__all__ = [
    "CompileOptions",
    "CompiledStencil",
    "StencilRunResult",
    "resolve_compile_options",
    "compile_resolved",
    "compile_stencil",
    "compile_cached",
    "execute_compiled",
]


@dataclass(frozen=True)
class _MorphGeometry:
    """The morph bookkeeping :func:`assemble_output` needs (no operands)."""

    config: MorphConfig
    m_prime: int
    n_prime: int
    out_shape: Tuple[int, ...]
    padded_out_shape: Tuple[int, ...]
    tile_grid: Tuple[int, ...]


@dataclass(frozen=True)
class CompiledStencil:
    """A stencil lowered to a sparse/dense Tensor-Core kernel plan.

    Attributes
    ----------
    original_pattern / pattern:
        The user's stencil and the (possibly temporally fused) stencil the
        kernel actually implements.
    plan:
        The generated kernel plan.
    search:
        Layout-search result (``None`` when a fixed layout was requested).
    overhead_seconds:
        Host-side preprocessing cost per stage: ``transformation`` (morphing +
        conversion + layout search), ``metadata`` and ``lookup_table`` — the
        three categories of Figure 8.
    temporal_fusion:
        Number of time steps folded into one sweep.
    boundary:
        Boundary condition the plan was compiled for (see
        :mod:`repro.stencils.boundary`).  The kernel operands are identical
        across conditions, but executors select their halo handling from
        this field, so plans are *not* interchangeable across boundaries —
        which is why it is part of the compile fingerprint.
    backend:
        Registered execution backend the plan's sweeps run on (see
        :mod:`repro.core.codegen`).  Plans compile identically across
        backends, but their numerics differ (``tcu-sim`` carries device
        precision; host backends compute in float64), so — like ``boundary``
        — the backend is part of the compile fingerprint and a cached plan
        is never served across backends.
    """

    original_pattern: StencilPattern
    pattern: StencilPattern
    grid_shape: Tuple[int, ...]
    plan: KernelPlan
    search: Optional[LayoutSearchResult]
    spec: GPUSpec
    overhead_seconds: Dict[str, float]
    temporal_fusion: int = 1
    conversion_method: str = "auto"
    boundary: str = "dirichlet"
    backend: str = "tcu-sim"

    @property
    def engine(self) -> str:
        return self.plan.engine

    @property
    def config(self) -> MorphConfig:
        return self.plan.config

    def geometry(self) -> _MorphGeometry:
        lut = self.plan.lut
        return _MorphGeometry(
            config=self.plan.config,
            m_prime=self.plan.m_prime,
            n_prime=self.plan.n_prime,
            out_shape=lut.out_shape,
            padded_out_shape=lut.padded_out_shape,
            tile_grid=lut.tile_grid,
        )


@dataclass(frozen=True)
class StencilRunResult:
    """Functional and modelled outcome of running a compiled stencil."""

    output: np.ndarray
    iterations: int
    elapsed_seconds: float
    compute_seconds: float
    memory_seconds: float
    gstencil_per_second: float
    gflops_per_second: float
    utilization: UtilizationReport
    overhead_seconds: Dict[str, float]
    sweeps: int
    #: sweeps executed with the unfused pattern when ``iterations`` is not a
    #: multiple of the temporal-fusion factor (0 for divisible runs)
    leftover_sweeps: int = 0
    #: original-resolution stencil updates performed (fused sweeps count for
    #: ``temporal_fusion`` updates each) — the numerator of Eq. 12
    points_updated: float = 0.0
    #: caller-supplied request label, propagated by the batch service and the
    #: online server so a result can be attributed without positional lookup
    tag: Optional[str] = None

    @property
    def overhead_fraction(self) -> Dict[str, float]:
        """Host preprocessing cost relative to the modelled device time."""
        total = self.elapsed_seconds
        if total <= 0.0:
            return {name: 0.0 for name in self.overhead_seconds}
        return {name: value / (value + total)
                for name, value in self.overhead_seconds.items()}


@dataclass(frozen=True)
class CompileOptions:
    """Fully resolved compile inputs: the canonical form of every argument
    :func:`compile_stencil` accepts.

    Resolution normalises the user-facing conveniences — ``engine="auto"`` is
    pinned to the concrete engine, the default fragment is materialised and
    the grid shape is coerced to an int tuple — so that two calls that
    *mean* the same compilation resolve to equal options.
    :func:`compile_resolved` is a pure function of this object, which is what
    lets the service-layer compilation cache key on it (see
    :mod:`repro.service.fingerprint`).
    """

    pattern: StencilPattern
    grid_shape: Tuple[int, ...]
    dtype: DataType
    spec: GPUSpec
    engine: str
    fragment: FragmentShape
    search: bool
    r1: Optional[int]
    r2: Optional[int]
    temporal_fusion: int
    conversion_method: str
    block_hint: Optional[Tuple[int, ...]]
    boundary: str = "dirichlet"
    backend: str = "tcu-sim"

    @cached_property
    def effective_pattern(self) -> StencilPattern:
        """The (possibly temporally fused) pattern the kernel implements.

        Computed lazily: it is a pure function of ``pattern`` and
        ``temporal_fusion`` (both fingerprinted), and fusing large kernels
        costs dense convolutions — work a warm cache lookup must not pay.
        """
        effective = fuse_pattern(self.pattern, self.temporal_fusion)
        require(all(s >= effective.diameter for s in self.grid_shape),
                f"grid {self.grid_shape} too small for the fused kernel "
                f"(diameter {effective.diameter})")
        return effective


def resolve_compile_options(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    *,
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    engine: str = "auto",
    fragment: Optional[FragmentShape] = None,
    search: bool = True,
    r1: Optional[int] = None,
    r2: Optional[int] = None,
    temporal_fusion: int = 1,
    conversion_method: str = "auto",
    block_hint: Optional[Tuple[int, ...]] = None,
    boundary: str = "dirichlet",
    backend: Optional[str] = None,
) -> CompileOptions:
    """Validate and canonicalise every compile argument (no compilation).

    ``backend=None`` resolves through :func:`repro.core.codegen.resolve_backend`
    (the ``REPRO_BACKEND`` environment override, then ``"tcu-sim"``), so the
    canonical options always carry a concrete registered backend name.
    """
    from repro.stencils.boundary import normalize_boundary

    dtype = DataType(dtype)
    require_in(engine, ("auto", "sparse_mma", "dense_mma"), "engine")
    require_positive_int(temporal_fusion, "temporal_fusion")
    grid_shape = tuple(int(s) for s in grid_shape)
    boundary = normalize_boundary(boundary)
    backend = resolve_backend(backend)

    if engine == "auto":
        engine = "sparse_mma" if dtype.supports_sparse_tcu else "dense_mma"
    if fragment is None:
        fragment = SPARSE_FRAGMENTS[1] if engine == "sparse_mma" else DENSE_FRAGMENTS[0]
    require(fragment.sparse == (engine == "sparse_mma"),
            f"fragment {fragment.label} does not match engine {engine!r}")
    if not search:
        require(r1 is not None,
                "search=False requires an explicit r1 (and r2 for >=2D)")
    # cheap unfused bound here; the exact fused-diameter check runs when
    # `effective_pattern` is first materialised (i.e. at compile time)
    require(all(s >= pattern.diameter for s in grid_shape),
            f"grid {grid_shape} too small for pattern {pattern.name} "
            f"(diameter {pattern.diameter})")

    return CompileOptions(
        pattern=pattern,
        grid_shape=grid_shape,
        dtype=dtype,
        spec=spec,
        engine=engine,
        fragment=fragment,
        search=bool(search),
        # with search=True the explicit extents are never read, and with
        # search=False an omitted r2 (or any r2 on a 1D pattern) means 1 —
        # canonicalise both so equal-meaning calls resolve (and fingerprint)
        # equally
        r1=None if search else int(r1),
        r2=None if search else (1 if pattern.ndim == 1 else int(r2 or 1)),
        temporal_fusion=int(temporal_fusion),
        conversion_method=conversion_method,
        block_hint=None if block_hint is None else tuple(int(b) for b in block_hint),
        boundary=boundary,
        backend=backend,
    )


def compile_stencil(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    *,
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    engine: str = "auto",
    fragment: Optional[FragmentShape] = None,
    search: bool = True,
    r1: Optional[int] = None,
    r2: Optional[int] = None,
    temporal_fusion: int = 1,
    conversion_method: str = "auto",
    block_hint: Optional[Tuple[int, ...]] = None,
    boundary: str = "dirichlet",
    backend: Optional[str] = None,
) -> CompiledStencil:
    """Compile a stencil for the simulated sparse Tensor Cores.

    Parameters
    ----------
    engine:
        ``"sparse_mma"``, ``"dense_mma"`` or ``"auto"`` (sparse when the dtype
        supports it — the FP64 path of Table 3 falls back to dense TCUs).
    search:
        Run the layout exploration of §3.3.  When ``False``, ``r1`` (and
        ``r2`` for 2D/3D stencils) must be given.
    temporal_fusion:
        Fold this many time steps into one sweep (3 is what ConvStencil uses
        for small kernels; Figure 6 applies the same to SparStencil).
    boundary:
        Halo behaviour between sweeps (``"dirichlet"`` / ``"periodic"`` /
        ``"reflect"`` / ``"neumann(flux=...)"``, see
        :mod:`repro.stencils.boundary`).  Must match the
        boundary condition of the grids the plan will execute on.
    backend:
        Execution backend for the plan's sweeps (a registered name from
        :mod:`repro.core.codegen`, e.g. ``"tcu-sim"`` or ``"numpy"``).
        ``None`` resolves via the ``REPRO_BACKEND`` environment variable,
        then the default ``"tcu-sim"``.
    """
    options = resolve_compile_options(
        pattern, grid_shape,
        dtype=dtype, spec=spec, engine=engine, fragment=fragment,
        search=search, r1=r1, r2=r2, temporal_fusion=temporal_fusion,
        conversion_method=conversion_method, block_hint=block_hint,
        boundary=boundary, backend=backend,
    )
    return compile_resolved(options)


def compile_resolved(options: CompileOptions) -> CompiledStencil:
    """Run the three compilation stages on fully resolved options.

    This is a pure function of ``options`` (plus wall-clock stage timings):
    equal options produce plans with identical operands, metadata, lookup
    tables and estimates, which is the invariant the compilation cache relies
    on.
    """
    effective = options.effective_pattern
    grid_shape = options.grid_shape
    dtype, spec, engine = options.dtype, options.spec, options.engine
    fragment = options.fragment
    conversion_method = options.conversion_method

    timer = StageTimer()
    search_result: Optional[LayoutSearchResult] = None
    with timer.stage("transformation"):
        if options.search:
            search_result = search_layout(
                effective, grid_shape,
                fragment=fragment, dtype=dtype, spec=spec, engine=engine,
                conversion_method=conversion_method,
            )
            config = search_result.best_config
        else:
            config = MorphConfig.from_r1_r2(
                effective.ndim, int(options.r1), int(options.r2))

    # The remaining preprocessing is timed per stage so Figure 8 can split the
    # cost into transformation (morphing + conversion), metadata and LUT.
    from repro.core.conversion import convert_to_24
    from repro.core.lookup_table import build_lookup_table
    from repro.core.metadata import build_metadata
    from repro.core.morphing import morph_kernel_matrix
    from repro.core.staircase import block_structure_from_morph

    conversion = None
    metadata = None
    with timer.stage("transformation"):
        a_prime = morph_kernel_matrix(effective, config)
        if engine == "sparse_mma":
            structure = block_structure_from_morph(effective, config)
            conversion = convert_to_24(a_prime, structure=structure,
                                       method=conversion_method)
    with timer.stage("metadata"):
        if conversion is not None:
            metadata = build_metadata(conversion.a_converted)
    with timer.stage("lookup_table"):
        lut = build_lookup_table(effective, grid_shape, config)

    plan = generate_kernel(
        effective, grid_shape, config,
        fragment=fragment, dtype=dtype, spec=spec, engine=engine,
        conversion_method=conversion_method, block_hint=options.block_hint,
        render_source=False,
        prebuilt_conversion=conversion,
        prebuilt_metadata=metadata,
        prebuilt_lut=lut,
        prebuilt_estimate=(None if search_result is None
                           else search_result.best.estimate),
    )

    return CompiledStencil(
        original_pattern=options.pattern,
        pattern=effective,
        grid_shape=grid_shape,
        plan=plan,
        search=search_result,
        spec=spec,
        overhead_seconds=dict(timer.stages),
        temporal_fusion=options.temporal_fusion,
        conversion_method=options.conversion_method,
        boundary=options.boundary,
        backend=options.backend,
    )


def compile_cached(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    cache=None,
    **compile_kwargs,
) -> CompiledStencil:
    """Compile through ``cache`` (a :class:`repro.service.CompileCache`) when
    one is given, else compile directly — the single entry path every
    cache-aware caller (solve wrappers, sharded service, scaling analysis,
    leftover plans) funnels through."""
    if cache is not None:
        return cache.compile(pattern, grid_shape, **compile_kwargs)
    return compile_stencil(pattern, grid_shape, **compile_kwargs)


def execute_compiled(
    compiled: CompiledStencil,
    grid: Grid,
    iterations: int,
    *,
    cache=None,
) -> StencilRunResult:
    """Run ``iterations`` time steps of the compiled stencil on ``grid``.

    Thin wrapper over the execution-engine layer
    (:class:`repro.engine.SingleDeviceExecutor`): per sweep, the lookup
    tables gather ``B'`` from the current grid, the conversion's row
    permutation is applied, the (sparse or dense) MMA runs on the simulated
    Tensor Cores and the result is assembled back into the grid interior.
    The halo ring then follows the plan's boundary condition — held fixed
    under Dirichlet, refreshed from the interior under ``periodic`` /
    ``reflect`` — matching the golden reference.

    When ``iterations`` is not a multiple of the temporal-fusion factor, the
    remaining ``iterations % temporal_fusion`` steps run as plain (unfused)
    sweeps after the fused ones.  ``cache`` (an optional
    :class:`repro.service.CompileCache`) keeps the unfused leftover plan from
    being recompiled on every call.

    This is the engine-layer entry the session facade and the other internal
    callers share; user code goes through :meth:`repro.StencilSession.run`.
    """
    from repro.engine.single import SingleDeviceExecutor

    return SingleDeviceExecutor(cache=cache).execute(compiled, grid, iterations)
