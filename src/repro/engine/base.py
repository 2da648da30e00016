"""Execution-engine core: the sweep step API and the executor protocol.

The compile side of the pipeline (:mod:`repro.core.pipeline`) produces a
:class:`~repro.core.pipeline.CompiledStencil`; *executing* it is the
engine layer's job.  One sweep decomposes into three steps, mirroring the
generated kernel's stages:

1. :func:`gather_step` — stage the operand.  A ``sparse_mma`` plan rounds
   the grid once to the device precision into a tile-padded fp32 buffer,
   split into the tile lattice's phases
   (:meth:`~repro.core.codegen.SlotTable.stage`); like the generated
   kernel, it never builds ``B'``.  A ``dense_mma`` plan gathers ``B'``
   through the lookup tables;
2. :func:`mma_step` — the MMA on the simulated Tensor Cores.  A sparse plan
   accumulates its compile-time slot table
   (:meth:`~repro.core.codegen.SlotTable.multiply`) — one contiguous run of
   the staged buffer per retained 2:4 slot, in fp32 and slot order,
   skipping zero-weight slots when the buffer is finite; a dense plan
   runs ``B'`` through the dense MMA model
   (:func:`~repro.tcu.dense_mma.dense_mma`).  Both attach the launch priced
   once per context from the plan's shapes
   (:attr:`SweepContext.priced_launch`).  A sparse plan's ``D`` stays in
   fp32, viewed over the tile grid (``(m',) + tile_grid``); a dense plan's
   is the model's float64 ``(m', n')``;
3. :func:`assemble_step` — scatter ``D`` into the grid interior in place:
   row ``a`` of ``D`` holds intra-tile offset ``o`` (row-major over the
   tile extents ``r``) of every tile, so it is written, cropped to the
   tiles that fit, straight into the strided view
   ``interior[o_0::r_0, o_1::r_1, ...]`` (:attr:`SweepContext.scatter`) —
   for sparse and dense plans alike, with no intermediate grid, widening
   fp32 to float64 exactly on store.  The halo ring is the *executor's*
   responsibility, per the plan's boundary condition.

The arrays a sparse plan's :func:`gather_step` and :func:`mma_step` return
are scratch of the calling thread's arena (see
:class:`~repro.core.codegen.SlotTable`): valid only until that thread's
next slot-table sweep.  Nothing borrowed leaves a sweep — the ``tcu-sim``
sweep returns the priced launch without an output.

:func:`prepare_sweep` precomputes everything the steps share for one plan,
once per plan and device (:func:`plan_memo`); executors
(:class:`SweepExecutor` implementations) own the loop around the steps —
how many sweeps, on how many devices, with what halo movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (Any, Callable, Hashable, Optional, Protocol, Sequence,
                    Tuple, runtime_checkable)

import numpy as np

from repro.core.codegen import get_backend
from repro.core.lookup_table import gather_b_matrix
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.stencils.grid import Grid
from repro.stencils.reference import stencil_points_updated
from repro.tcu.counters import combine_utilization
from repro.tcu.dense_mma import dense_mma
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import GPUSpec
from repro.util.validation import ValidationError, require

__all__ = [
    "SweepContext",
    "SweepExecutor",
    "prepare_sweep",
    "gather_step",
    "mma_step",
    "assemble_step",
    "run_sweep",
    "summarize_launches",
    "original_points",
    "throughput_metrics",
    "require_grid",
]


@runtime_checkable
class SweepExecutor(Protocol):
    """Anything that can run a compiled stencil for a number of iterations.

    Implementations must preserve the functional contract of the original
    monolithic loop: interior cells advance by one (possibly fused) time step
    per sweep, halo cells follow the compiled plan's boundary condition
    (held fixed under Dirichlet, refreshed from the interior under
    ``periodic`` / ``reflect`` — see :mod:`repro.stencils.boundary`), and
    the returned :class:`~repro.core.pipeline.StencilRunResult` carries the
    modelled timing and utilization of the whole run.
    """

    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> StencilRunResult:
        ...


#: Facts one plan memoizes (:func:`plan_memo`) before its memo is cleared
#: and starts over: a sweep context per device and backend, the sharded
#: identity, the leftover request (and, without a cache, plan) and the
#: point count per split of fused and leftover sweeps.  A plan run on more
#: devices or at more iteration counts re-derives them.
PLAN_MEMO_LIMIT = 32


class _PlanMemo(dict):
    """One plan's derived facts.  It pickles and copies empty: the sweep
    closures it holds belong to this process, and every fact is derived
    again on demand."""

    def __reduce__(self):
        return type(self), ()


def plan_memo(owner: Any, key: Hashable, build: Callable[[], Any]) -> Any:
    """``build()``, derived once per plan: memoized on ``owner`` — a plan,
    or a fact its memo holds (a context's priced launch) — under ``key``,
    so it lives exactly as long as its owner.

    ``key`` must name every input of ``build`` beyond the owner.  A plan
    rebuilt by ``dataclasses.replace`` (a rebranded cache hit) starts with
    an empty memo, so a renamed pattern never inherits another's launch
    name.  Racing threads may both build a cold key; the first stored is
    kept.  Holds at most :data:`PLAN_MEMO_LIMIT` facts.
    """
    state = vars(owner)
    memo = state.get("_memo")
    if memo is None:
        # frozen dataclass: the memo rides outside the dataclass fields
        memo = state.setdefault("_memo", _PlanMemo())
    value = memo.get(key)
    if value is None:
        value = build()
        if len(memo) >= PLAN_MEMO_LIMIT:
            memo.clear()
        value = memo.setdefault(key, value)
    return value


@dataclass(frozen=True)
class SweepContext:
    """Precomputed per-plan state shared by every sweep of a plan on one
    device.

    ``sweep`` is the backend-specific sweep callable, bound once per plan
    and device by :func:`prepare_sweep` from the plan's registered backend
    (:func:`repro.core.codegen.get_backend`); :func:`run_sweep` dispatches
    through it.
    """

    compiled: CompiledStencil
    spec: GPUSpec
    interior: Tuple[slice, ...]
    launch_name: str
    sweep: Callable[[np.ndarray], LaunchResult] = field(
        default=None, compare=False, repr=False)

    @property
    def plan(self):
        return self.compiled.plan

    @property
    def radius(self) -> int:
        return self.compiled.pattern.radius

    @cached_property
    def priced_launch(self) -> LaunchResult:
        """The modelled launch of one sweep of this plan (``output`` is
        ``None``): the backend's
        :meth:`~repro.core.codegen.StencilBackend.price`, priced once per
        context — so once per plan and device.

        Every sweep of a plan bills the same launch, so every sweep returns
        this one, and the sharded engine prices a layout's bill from it
        once, without sweeping.
        """
        return get_backend(self.compiled.backend).price(self)

    @cached_property
    def scatter(self) -> Tuple[Tuple[Tuple[slice, ...], Tuple[slice, ...]], ...]:
        """Where each row of ``D`` lands in the grid, in row order.

        Row ``a`` holds intra-tile offset ``o`` (row-major over the tile
        extents ``r``) of every tile; its ``(target, crop)`` pair is the
        strided interior view ``[radius + o_i :: r_i]`` and the slice of the
        row's tile grid that fills it — the tiles whose cell at ``o`` lies
        inside the interior rather than in the tile padding.
        """
        r = self.plan.config.r
        out_shape = self.plan.lut.out_shape
        return tuple(
            (tuple(slice(axis.start + o, axis.stop, step)
                   for axis, o, step in zip(self.interior, offset, r)),
             tuple(slice(0, len(range(o, extent, step)))
                   for o, extent, step in zip(offset, out_shape, r)))
            for offset in np.ndindex(*r))

    @cached_property
    def tiles_shape(self) -> Tuple[int, ...]:
        """``D`` viewed over the tile grid: ``(m',) + tile_grid``."""
        return (self.plan.m_prime,) + self.plan.lut.tile_grid


def prepare_sweep(compiled: CompiledStencil,
                  spec: Optional[GPUSpec] = None) -> SweepContext:
    """The :class:`SweepContext` of one compiled plan on one device.

    ``spec`` overrides the device the sweeps are costed on (the sharded
    executor runs each shard's plan against one device of its cluster);
    it defaults to the spec the stencil was compiled for.  The plan's
    backend is resolved here and its sweep closure attached to the
    context, once per plan and device: the context is memoized on the plan
    (:func:`plan_memo`), keyed by the device object and the registered
    backend, so a warm run binds nothing.
    """
    backend = get_backend(compiled.backend)
    # the context holds ``spec``, so its id names it while the entry lives
    key = ("sweep", None if spec is None else id(spec), backend)
    return plan_memo(compiled, key,
                     lambda: _bind_sweep(compiled, spec, backend))


def _bind_sweep(compiled: CompiledStencil, spec: Optional[GPUSpec],
                backend: Any) -> SweepContext:
    radius = compiled.pattern.radius
    interior = tuple(slice(radius, s - radius) for s in compiled.grid_shape)
    context = SweepContext(
        compiled=compiled,
        spec=spec if spec is not None else compiled.spec,
        interior=interior,
        launch_name=f"sparstencil/{compiled.pattern.name}",
    )
    # frozen dataclass: the sweep closure needs the context it is attached to
    object.__setattr__(context, "sweep", backend.make_sweep(context))
    return context


def gather_step(context: SweepContext, current: np.ndarray) -> np.ndarray:
    """Stage 1: stage the MMA's B operand from the current grid.

    A plan with a slot table returns the grid rounded to the device
    precision in its phase-split, tile-padded fp32 buffer — arena scratch,
    valid until the thread's next slot-table sweep; a dense plan returns
    ``B'`` gathered through the LUTs.
    """
    plan = context.plan
    if plan.slot_table is not None:
        return plan.slot_table.stage(current)
    return gather_b_matrix(plan.lut, current)


def mma_step(context: SweepContext, b_operand: np.ndarray) -> LaunchResult:
    """Stage 2: run the fragment MMA on the simulated device.

    A plan with a slot table multiplies the staged buffer slot by slot
    into fp32 ``D`` over the tile grid, ``(m',) + tile_grid`` — arena
    scratch, valid until the thread's next slot-table sweep; a dense plan
    runs ``B'`` through the dense MMA model into a float64 ``(m', n')``.
    Either way the launch is the context's
    :attr:`~SweepContext.priced_launch` with the product attached.
    """
    plan = context.plan
    if plan.slot_table is not None:
        output = plan.slot_table.multiply(b_operand)
    else:
        output = dense_mma(plan.a_operand, b_operand, plan.fragment,
                           dtype=plan.dtype).d
    return replace(context.priced_launch, output=output)


def assemble_step(context: SweepContext, result: LaunchResult,
                  current: np.ndarray) -> None:
    """Stage 3: scatter ``D`` into the grid interior, in place.

    ``D`` is either the slot table's fp32 tiles, ``(m',) + tile_grid``, or
    the device model's float64 ``(m', n')`` product, viewed over the tile
    grid.  Each row, cropped, is written through its
    :attr:`~SweepContext.scatter` view (an fp32 row widens to float64
    exactly); the result equals :func:`~repro.core.morphing.assemble_output`
    written to the interior.
    """
    output = result.output
    if output is None:
        raise ValidationError(
            f"launch {result.name!r} produced no functional output")
    tiles_shape = context.tiles_shape
    if output.shape != tiles_shape:
        d_shape = (tiles_shape[0], context.plan.n_prime)
        if output.shape != d_shape:
            raise ValidationError(
                f"D has shape {output.shape}, expected {d_shape} or its "
                f"tile view {tiles_shape}")
        output = output.reshape(tiles_shape)
    for row, (target, crop) in zip(output, context.scatter):
        current[target] = row[crop]


def run_sweep(context: SweepContext, current: np.ndarray) -> LaunchResult:
    """One full sweep, updating ``current`` in place.

    Dispatches to the backend closure bound at :func:`prepare_sweep` time.
    Under the default ``"tcu-sim"`` backend this is exactly the
    ``gather -> MMA -> assemble`` sequence of :func:`gather_step` /
    :func:`mma_step` / :func:`assemble_step`; other backends substitute
    their own host implementation while preserving the interior-update
    contract.
    """
    return context.sweep(current)


def require_grid(grid: Grid, shape: Tuple[int, ...], boundary: str) -> None:
    """Reject a run whose grid does not match the plan's shape or boundary
    (messages are built only on failure: this runs on every solve)."""
    if tuple(grid.shape) != shape:
        raise ValidationError(f"grid shape {tuple(grid.shape)} does not "
                              f"match the compiled shape {shape}")
    if grid.boundary != boundary:
        raise ValidationError(
            f"grid boundary {grid.boundary!r} does not match the compiled "
            f"boundary {boundary!r} — recompile for this grid")


def billed_launch(launch: LaunchResult) -> LaunchResult:
    """``launch`` without its functional output, which is all a run bills.

    Executors keep one launch per sweep to total a run's modelled time;
    keeping a sweep's product too would hold every sweep's ``D`` alive
    until the run ends.  The launch a backend returned stays the one
    billed.
    """
    return launch if launch.output is None else replace(launch, output=None)


@dataclass(frozen=True)
class _LaunchTotals:
    elapsed_seconds: float
    compute_seconds: float
    memory_seconds: float
    utilization: object


def summarize_launches(results: Sequence[LaunchResult]) -> _LaunchTotals:
    """Sum modelled times and aggregate utilization across launches.

    Utilization is weighted by each launch's elapsed time, so a run mixing
    fused and leftover sweeps (or differently sized shards) reports the
    counters an NCU capture over the whole run would.

    A run that billed one launch ``n`` times (every sweep of a one-plan run
    returns its context's priced launch) is summed once per ``n`` and kept
    with that launch (:func:`plan_memo`).  The sums stay left to right:
    ``n`` additions of ``x`` and ``n*x`` can differ in the last bit.
    """
    results = list(results)
    require(len(results) > 0, "summarize_launches needs at least one launch")
    first = results[0]
    if all(launch is first for launch in results):
        return plan_memo(first, ("totals", len(results)),
                         lambda: _sum_launches(results))
    return _sum_launches(results)


def _sum_launches(results: Sequence[LaunchResult]) -> _LaunchTotals:
    return _LaunchTotals(
        elapsed_seconds=sum(r.elapsed_seconds for r in results),
        compute_seconds=sum(r.compute_seconds for r in results),
        memory_seconds=sum(r.memory_seconds for r in results),
        utilization=combine_utilization(
            [r.utilization for r in results],
            [r.elapsed_seconds for r in results]),
    )


def original_points(compiled: CompiledStencil, fused_sweeps: int,
                    leftover_sweeps: int) -> float:
    """Original-resolution stencil updates for a mixed fused/plain run,
    counted once per plan and split of sweeps (:func:`plan_memo`)."""
    return plan_memo(compiled, ("points", fused_sweeps, leftover_sweeps),
                     lambda: _original_points(compiled, fused_sweeps,
                                              leftover_sweeps))


def _original_points(compiled: CompiledStencil, fused_sweeps: int,
                     leftover_sweeps: int) -> float:
    points = 0.0
    if fused_sweeps:
        points += (stencil_points_updated(compiled.pattern,
                                          compiled.grid_shape, fused_sweeps)
                   * compiled.temporal_fusion)
    if leftover_sweeps:
        points += stencil_points_updated(compiled.original_pattern,
                                         compiled.grid_shape, leftover_sweeps)
    return float(points)


def throughput_metrics(compiled: CompiledStencil, points: float,
                       elapsed_seconds: float) -> Tuple[float, float]:
    """``(GStencil/s, GFlops/s)`` of a run — Eq. 12 and the Table-3 metric.

    Shared by every executor so the throughput definition cannot diverge
    between the single-device and sharded paths.
    """
    if elapsed_seconds <= 0.0:
        return 0.0, 0.0
    gstencil = points / elapsed_seconds / 1e9
    flops = 2.0 * compiled.original_pattern.points * points
    return gstencil, flops / elapsed_seconds / 1e9
