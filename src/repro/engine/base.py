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
   the staged buffer per retained 2:4 slot, in fp32 and slot order — and
   attaches the launch priced once per context from the plan's shapes; a
   dense plan runs the functional device model
   (:func:`~repro.tcu.executor.execute_launch`);
3. :func:`assemble_step` — reassemble ``D`` into the grid interior (the
   halo ring is the *executor's* responsibility, per the plan's boundary
   condition).

:func:`prepare_sweep` precomputes everything the steps share for one plan;
executors (:class:`SweepExecutor` implementations) own the loop around the
steps — how many sweeps, on how many devices, with what halo movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.codegen import get_backend
from repro.core.lookup_table import gather_b_matrix
from repro.core.morphing import assemble_output
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.stencils.grid import Grid
from repro.stencils.reference import stencil_points_updated
from repro.tcu.counters import combine_utilization
from repro.tcu.executor import KernelLaunch, LaunchResult, execute_launch, price_launch
from repro.tcu.spec import GPUSpec
from repro.tcu.timing import mma_count
from repro.util.validation import require

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


@dataclass(frozen=True)
class SweepContext:
    """Precomputed per-plan state shared by every sweep of a run.

    ``sweep`` is the backend-specific sweep callable, bound once by
    :func:`prepare_sweep` from the plan's registered backend
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
        """The modelled timing of one slot-table sweep, priced from shapes.

        Every sweep of a plan issues the same launch, so it is priced once
        per context — by the formulas :func:`execute_launch` uses, with
        ``fragment_ops`` from the operand shapes — and each sweep attaches
        its output to it.
        """
        plan = self.plan
        return price_launch(
            self.launch_name, plan.engine,
            mma_count(plan.m_prime, plan.metadata.compressed.k, plan.n_prime,
                      plan.fragment),
            fragment=plan.fragment,
            dtype=plan.dtype,
            traffic=plan.estimate.traffic,
            threads_per_block=plan.threads_per_block,
            blocks=plan.blocks,
            registers_per_thread=plan.registers_per_thread,
            spec=self.spec,
        )


def prepare_sweep(compiled: CompiledStencil,
                  spec: Optional[GPUSpec] = None) -> SweepContext:
    """Build the :class:`SweepContext` for one compiled plan.

    ``spec`` overrides the device the sweeps are costed on (the sharded
    executor runs each shard's plan against one device of its cluster);
    it defaults to the spec the stencil was compiled for.  The plan's
    backend is resolved here — once per run, not per sweep — and its sweep
    closure attached to the context.
    """
    radius = compiled.pattern.radius
    interior = tuple(slice(radius, s - radius) for s in compiled.grid_shape)
    context = SweepContext(
        compiled=compiled,
        spec=spec if spec is not None else compiled.spec,
        interior=interior,
        launch_name=f"sparstencil/{compiled.pattern.name}",
    )
    backend = get_backend(compiled.backend)
    # frozen dataclass: the sweep closure needs the context it is attached to
    object.__setattr__(context, "sweep", backend.make_sweep(context))
    return context


def gather_step(context: SweepContext, current: np.ndarray) -> np.ndarray:
    """Stage 1: stage the MMA's B operand from the current grid.

    A plan with a slot table returns the grid rounded to the device
    precision in its phase-split, tile-padded fp32 buffer; a dense plan
    returns ``B'`` gathered through the LUTs.
    """
    plan = context.plan
    if plan.slot_table is not None:
        return plan.slot_table.stage(current)
    return gather_b_matrix(plan.lut, current)


def mma_step(context: SweepContext, b_operand: np.ndarray) -> LaunchResult:
    """Stage 2: run the fragment MMA on the simulated device.

    A plan with a slot table multiplies the staged buffer slot by slot and
    reuses the context's :attr:`~SweepContext.priced_launch`; a dense plan
    executes a :class:`KernelLaunch` on the functional device model.
    """
    plan = context.plan
    if plan.slot_table is not None:
        return replace(context.priced_launch,
                       output=plan.slot_table.multiply(b_operand))
    launch = KernelLaunch(
        name=context.launch_name,
        engine=plan.engine,
        a=plan.a_operand,
        b=b_operand,
        fragment=plan.fragment,
        dtype=plan.dtype,
        traffic=plan.estimate.traffic,
        threads_per_block=plan.threads_per_block,
        blocks=plan.blocks,
        registers_per_thread=plan.registers_per_thread,
    )
    return execute_launch(launch, context.spec)


def assemble_step(context: SweepContext, result: LaunchResult,
                  current: np.ndarray) -> None:
    """Stage 3: reassemble ``D`` into the grid interior, in place."""
    require(result.output is not None,
            f"launch {result.name!r} produced no functional output")
    output_grid = assemble_output(result.output, context.compiled.geometry())
    current[context.interior] = output_grid


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
    """
    results = list(results)
    require(len(results) > 0, "summarize_launches needs at least one launch")
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
    """Original-resolution stencil updates for a mixed fused/plain run."""
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
